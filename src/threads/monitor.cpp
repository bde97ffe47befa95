#include "threads/monitor.h"

#include <atomic>
#include <mutex>
#include <unordered_map>

#include "common/check.h"
#include "core/queue.h"
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
// WaitSets are leaked deliberately: an entry may be observed by a waker
// after its last waiter left, and the table is small (one per object
// ever waited on concurrently). Entries are pruned when empty.
std::unordered_map<const void*, WaitSet*> gTable;

// Finds or creates key's WaitSet and counts the caller as its waiter,
// in one hold of gTableMu so a concurrent prune cannot orphan it.
WaitSet* join_wait_set(const void* key) {
  std::lock_guard<std::mutex> lk(gTableMu);
  WaitSet*& ws = gTable[key];
  if (!ws) ws = new WaitSet();
  ws->waiters++;
  return ws;
}

void leave_wait_set(const void* key, WaitSet* ws) {
  std::lock_guard<std::mutex> lk(gTableMu);
  if (--ws->waiters == 0) {
    auto it = gTable.find(key);
    if (it != gTable.end() && it->second == ws) gTable.erase(it);
    // ws itself leaks (tiny) — a waker may still hold the pointer.
  }
}

// Signals key's waiters, if any wait.
void deliver(const void* key, bool all) {
  WaitSet* ws;
  {
    std::lock_guard<std::mutex> lk(gTableMu);
    auto it = gTable.find(key);
    if (it == gTable.end()) return;
    ws = it->second;
  }
  auto& lot = core::ParkingLot::instance();
  if (all) {
    ws->allTicket.fetch_add(1, std::memory_order_release);
    lot.unpark_all(ws);
  } else {
    ws->singles.fetch_add(1, std::memory_order_release);
    lot.unpark_one(ws);
  }
}

// Consumes one notify_one credit if there is one.
bool take_single(WaitSet* ws) {
  uint64_t n = ws->singles.load(std::memory_order_acquire);
  while (n > 0)
    if (ws->singles.compare_exchange_weak(n, n - 1, std::memory_order_acq_rel)) return true;
  return false;
}

}  // namespace

void wait_on(runtime::ManagedObject* obj) {
  auto& tc = core::tls_context();
  SBD_CHECK_MSG(tc.txn.active(), "wait_on outside an atomic section");
  SBD_CHECK_MSG(tc.noSplitDepth == 0, "wait_on inside a noSplit block");
  WaitSet* ws = join_wait_set(obj);

  // Take the ticket *before* the split commits: we still hold locks on
  // the condition here, so no signal for the current condition state
  // can have been delivered yet.
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

}  // namespace sbd::threads
