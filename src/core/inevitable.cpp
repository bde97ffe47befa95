#include "core/inevitable.h"

#include <atomic>

#include "common/check.h"
#include "core/queue.h"
#include "core/transaction.h"

namespace sbd::core {

namespace {

// The token: taken by CAS, waiters park on it.
std::atomic<ThreadContext*> gHolder{nullptr};
std::atomic<uint64_t> gAcquisitions{0};

// Releases the token when the inevitable section ends.
class InevitabilityToken final : public TxResource {
 public:
  void on_commit() override { release(); }
  void on_abort() override {
    // Past the point of no return (set_inevitable) an abort is fatal:
    // the section's effects may already be externally visible. Before
    // it — the versioned read-set promotion between taking the token
    // and setting the flag can still abort on a stale snapshot — the
    // abort is ordinary and must hand the token back (the checkpoint
    // restore does not unwind the stack, so this resource hook is the
    // only cleanup that runs).
    SBD_CHECK_MSG(!tls_context().txn.inevitable(),
                  "abort of an inevitable section");
    release();
  }

  static InevitabilityToken& instance() {
    static InevitabilityToken tok;
    return tok;
  }

 private:
  static void release() {
    gHolder.store(nullptr, std::memory_order_release);
    ParkingLot::instance().unpark_one(&gHolder);
  }
};

}  // namespace

void become_inevitable() {
  auto& tc = tls_context();
  SBD_CHECK_MSG(tc.txn.active(), "become_inevitable outside an atomic section");
  if (gHolder.load(std::memory_order_relaxed) == &tc) return;  // already inevitable
  ThreadContext* none = nullptr;
  if (!gHolder.compare_exchange_strong(none, &tc, std::memory_order_acquire)) {
    // Every release wakes one waiter, which takes the token or parks
    // again behind the thread that beat it to it.
    Safepoint::SafeScope safe(tc);
    do {
      ParkingLot::instance().park(
          &gHolder, [] { return gHolder.load(std::memory_order_relaxed) != nullptr; }, 0,
          kNoDeadline);
      none = nullptr;
    } while (!gHolder.compare_exchange_strong(none, &tc, std::memory_order_acquire));
  }
  gAcquisitions.fetch_add(1, std::memory_order_relaxed);
  // Register the release hook BEFORE anything below can abort, then pin
  // down the invisible reads: an inevitable section can never abort,
  // and versioned reads settle conflicts by aborting the reader — so
  // every versioned read-set entry is locked exclusively and the
  // snapshot validated NOW, while this transaction is still revocable.
  tc.txn.add_resource(&InevitabilityToken::instance());
  LockEngine::versioned_promote_for_inevitable(tc);
  tc.txn.set_inevitable(true);
}

bool is_inevitable() {
  auto* tc = tls_context_if_present();
  return tc && gHolder.load(std::memory_order_acquire) == tc;
}

uint64_t inevitable_acquisitions() {
  return gAcquisitions.load(std::memory_order_relaxed);
}

}  // namespace sbd::core
