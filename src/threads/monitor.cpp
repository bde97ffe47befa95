#include "threads/monitor.h"

#include <atomic>
#include <mutex>
#include <unordered_map>

#include "common/check.h"
#include "core/queue.h"
#include "core/resource.h"
#include "core/transaction.h"

namespace sbd::threads {

namespace {

// Waiters park in core::ParkingLot keyed by their WaitSet.
struct WaitSet {
  std::atomic<uint64_t> allTicket{0};  // bumped by every delivered notify_all
  std::atomic<uint64_t> singles{0};    // pending notify_one credits
  int waiters = 0;                     // guarded by gTableMu
};

std::mutex gTableMu;
// One WaitSet per object some thread waits on, created by its first
// waiter and deleted when its last waiter leaves; all guarded by
// gTableMu. Wakers bump the counters under gTableMu too, so a set is
// never touched after its deletion: the unpark that follows uses the
// set's address only as a key, and a set reallocated at that address
// can at most see a spurious wake, which its park loop re-checks.
std::unordered_map<const void*, WaitSet*> gTable;

// Finds or creates key's WaitSet and counts the caller as its waiter,
// in one hold of gTableMu so a concurrent leave cannot delete it.
WaitSet* join_wait_set(const void* key) {
  std::lock_guard<std::mutex> lk(gTableMu);
  WaitSet*& ws = gTable[key];
  if (!ws) ws = new WaitSet();
  ws->waiters++;
  return ws;
}

void leave_wait_set(const void* key, WaitSet* ws) {
  std::lock_guard<std::mutex> lk(gTableMu);
  if (--ws->waiters > 0) return;
  gTable.erase(key);
  delete ws;
}

// Signals key's waiters, if any wait.
void deliver(const void* key, bool all) {
  const void* parkKey;
  {
    std::lock_guard<std::mutex> lk(gTableMu);
    auto it = gTable.find(key);
    if (it == gTable.end()) return;
    WaitSet* ws = it->second;
    (all ? ws->allTicket : ws->singles).fetch_add(1, std::memory_order_release);
    parkKey = ws;
  }
  auto& lot = core::ParkingLot::instance();
  if (all)
    lot.unpark_all(parkKey);
  else
    lot.unpark_one(parkKey);
}

// Consumes one notify_one credit if there is one.
bool take_single(WaitSet* ws) {
  uint64_t n = ws->singles.load(std::memory_order_acquire);
  while (n > 0)
    if (ws->singles.compare_exchange_weak(n, n - 1, std::memory_order_acq_rel)) return true;
  return false;
}

// Leaves the wait set a wait_on joined when the split that would park
// the caller aborts instead: a versioned read of the condition failed
// validation there, and the retry re-reads it and joins again.
struct JoinedWaitSet final : core::TxResource {
  const void* key = nullptr;
  WaitSet* ws = nullptr;
  void on_commit() override {}
  void on_abort() override { leave_wait_set(key, ws); }
};
thread_local JoinedWaitSet tJoined;

}  // namespace

void wait_on(runtime::ManagedObject* obj) {
  auto& tc = core::tls_context();
  SBD_CHECK_MSG(tc.txn.active(), "wait_on outside an atomic section");
  SBD_CHECK_MSG(tc.noSplitDepth == 0, "wait_on inside a noSplit block");
  WaitSet* ws = join_wait_set(obj);
  tJoined.key = obj;
  tJoined.ws = ws;
  tc.txn.add_resource(&tJoined);

  // Take the ticket *before* the split commits: we still hold locks on
  // the condition here (under a versioned map, the split's validation
  // aborts us if a signaller committed since our read), so no signal
  // for the current condition state can have been delivered yet.
  const uint64_t allTicket0 = ws->allTicket.load(std::memory_order_acquire);

  auto blocked = [&] {
    auto& tc2 = core::tls_context();
    tc2.waitingObj = obj;  // GC root while blocked
    {
      core::Safepoint::SafeScope safe(tc2);
      auto unsignaled = [&] {
        return ws->allTicket.load(std::memory_order_acquire) == allTicket0 &&
               ws->singles.load(std::memory_order_acquire) == 0;
      };
      // A broadcast ends the wait; a notify_one credit must be won.
      while (ws->allTicket.load(std::memory_order_acquire) == allTicket0 && !take_single(ws))
        core::ParkingLot::instance().park(ws, unsignaled, 0, core::kNoDeadline);
    }
    tc2.waitingObj = nullptr;
    leave_wait_set(obj, ws);  // here, not after the split: that code replays on abort
  };
  core::split_section_releasing_id(tc, blocked);
}

namespace {
void signal(runtime::ManagedObject* obj, bool all) {
  auto* tc = core::tls_context_if_present();
  if (tc && tc->txn.active()) {
    // Deferred signal (§3.5): delivered only if this section commits,
    // after its locks are released.
    tc->txn.defer([obj, all] { deliver(obj, all); });
  } else {
    deliver(obj, all);
  }
}
}  // namespace

void notify_all(runtime::ManagedObject* obj) { signal(obj, true); }
void notify_one(runtime::ManagedObject* obj) { signal(obj, false); }

size_t waited_objects() {
  std::lock_guard<std::mutex> lk(gTableMu);
  return gTable.size();
}

}  // namespace sbd::threads
