#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/check.h"
#include "common/timing.h"
#include "core/fault.h"
#include "core/obs.h"
#include "core/transaction.h"

namespace sbd::core {

std::atomic<bool> Safepoint::stopRequested_{false};

namespace {
std::mutex gSpMu;
std::condition_variable gSpCv;
ThreadContext* gStopper = nullptr;

inline void* sp_from(const ucontext_t& ctx) {
#if defined(__x86_64__)
  return reinterpret_cast<void*>(ctx.uc_mcontext.gregs[REG_RSP]);
#elif defined(__aarch64__)
  return reinterpret_cast<void*>(ctx.uc_mcontext.sp);
#endif
}

// Spills the register file into the context so a conservative scan sees
// references that currently live only in registers.
inline void spill(ThreadContext& tc) {
  getcontext(&tc.spillCtx);
  tc.spillSp = sp_from(tc.spillCtx);
}
}  // namespace

Safepoint::SafeScope::SafeScope(ThreadContext& tc) : tc_(tc) {
  spill(tc_);
  tc_.state.store(static_cast<int>(ThreadState::kSafe), std::memory_order_release);
  // The stopper polls with a timeout, so a lost wakeup only delays it.
  gSpCv.notify_all();
}

Safepoint::SafeScope::~SafeScope() {
  if (stopRequested_.load(std::memory_order_acquire)) {
    std::unique_lock<std::mutex> lk(gSpMu);
    gSpCv.wait(lk, [] { return !stopRequested_.load(std::memory_order_acquire); });
  }
  tc_.state.store(static_cast<int>(ThreadState::kRunning), std::memory_order_release);
}

void Safepoint::park(ThreadContext& tc) {
  // Fault site: a mutator slow to reach its safepoint, which stretches
  // every stop-the-world (GC, sampler).
  if (const uint64_t d = fault::fire_delay_nanos(fault::Site::kSafepointPark))
    std::this_thread::sleep_for(std::chrono::nanoseconds(d));
  spill(tc);
  std::unique_lock<std::mutex> lk(gSpMu);
  if (!stopRequested_.load(std::memory_order_acquire)) return;
  tc.state.store(static_cast<int>(ThreadState::kParked), std::memory_order_release);
  gSpCv.notify_all();
  gSpCv.wait(lk, [] { return !stopRequested_.load(std::memory_order_acquire); });
  tc.state.store(static_cast<int>(ThreadState::kRunning), std::memory_order_release);
}

void Safepoint::stop_world(ThreadContext& requester) {
  const uint64_t t0 = now_nanos();
  // While queueing behind another stopper (GC, sampler), the requester
  // must count as stopped, or the incumbent waits on us forever while
  // we wait on it: spill and go safe for the wait.
  spill(requester);
  requester.state.store(static_cast<int>(ThreadState::kSafe),
                        std::memory_order_release);
  std::unique_lock<std::mutex> lk(gSpMu);
  gSpCv.notify_all();
  while (gStopper != nullptr) gSpCv.wait_for(lk, std::chrono::microseconds(100));
  requester.state.store(static_cast<int>(ThreadState::kRunning),
                        std::memory_order_release);
  gStopper = &requester;
  stopRequested_.store(true, std::memory_order_release);
  // Wait until every other registered thread is parked or in a safe
  // region. Poll with a timeout: threads that were already blocked in a
  // SafeScope never signal again.
  for (;;) {
    bool allStopped = true;
    TxnManager::instance().for_each_thread([&](ThreadContext* tc) {
      if (tc == &requester) return;
      if (tc->state.load(std::memory_order_acquire) ==
          static_cast<int>(ThreadState::kRunning))
        allStopped = false;
    });
    if (allStopped) break;  // gSpMu releases; world stays stopped via flag
    gSpCv.wait_for(lk, std::chrono::microseconds(100));
  }
  if (obs::enabled())
    obs::record(obs::EventKind::kSafepointStop, requester.txn.id(), -1, nullptr,
                nullptr, obs::kNoIndex, false, now_nanos() - t0);
}

void Safepoint::resume_world(ThreadContext& requester) {
  std::lock_guard<std::mutex> lk(gSpMu);
  SBD_CHECK(gStopper == &requester);
  gStopper = nullptr;
  stopRequested_.store(false, std::memory_order_release);
  gSpCv.notify_all();
}

}  // namespace sbd::core
