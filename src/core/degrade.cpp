#include "core/degrade.h"

#include <atomic>
#include <condition_variable>
#include <mutex>

#include "core/obs.h"
#include "core/transaction.h"

namespace sbd::core::degrade {

namespace {

std::atomic<uint64_t> gRetryBudget{64};
std::atomic<uint64_t> gEscalations{0};

// The serialization token. A plain bool under a mutex (not a
// std::mutex held across the section) because the holder keeps it
// across aborts — i.e. across setcontext stack restores, which a held
// std::unique_lock would not survive.
std::mutex gTokenMu;
std::condition_variable gTokenCv;
bool gTokenHeld = false;

}  // namespace

void set_retry_budget(uint64_t aborts) {
  gRetryBudget.store(aborts, std::memory_order_relaxed);
}

uint64_t retry_budget() { return gRetryBudget.load(std::memory_order_relaxed); }

uint64_t escalations() { return gEscalations.load(std::memory_order_relaxed); }

bool serialized(const ThreadContext& tc) { return tc.holdsSerialToken; }

void on_abort(ThreadContext& tc) {
  const uint64_t aborts =
      tc.consecutiveAborts.fetch_add(1, std::memory_order_relaxed) + 1;
  const uint64_t budget = gRetryBudget.load(std::memory_order_relaxed);
  if (budget == 0 || tc.holdsSerialToken || aborts < budget) return;
  {
    // The wait can be long (another escalated section is running); let
    // the GC scan us meanwhile. We hold no SBD locks here (pre: caller
    // already ran LockEngine::release_all).
    Safepoint::SafeScope safe(tc);
    std::unique_lock<std::mutex> lk(gTokenMu);
    gTokenCv.wait(lk, [] { return !gTokenHeld; });
    gTokenHeld = true;
  }
  tc.holdsSerialToken = true;
  tc.stats.escalations++;
  gEscalations.fetch_add(1, std::memory_order_relaxed);
  obs::record(obs::EventKind::kEscalated, tc.txn.id(), -1, nullptr, nullptr,
              obs::kNoIndex, false);
}

void on_commit(ThreadContext& tc) {
  tc.consecutiveAborts.store(0, std::memory_order_relaxed);
  if (!tc.holdsSerialToken) return;
  tc.holdsSerialToken = false;
  {
    std::lock_guard<std::mutex> lk(gTokenMu);
    gTokenHeld = false;
  }
  gTokenCv.notify_one();
}

}  // namespace sbd::core::degrade
