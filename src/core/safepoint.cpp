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

// Spills the register file into the context so a conservative scan sees
// references that currently live only in registers. Under SBD_FASTCTX
// this is the checkpoint engine's capture (callee-saved registers and
// SP, no syscall); the caller-saved ones are already in the frames
// above the recorded SP. Sanitized builds fall back to getcontext.
inline void spill(ThreadContext& tc) {
#if SBD_FASTCTX
  sbd_ctx_save(&tc.spillCtx);
  tc.spillSp = fastctx_sp(tc.spillCtx);
#else
  getcontext(&tc.spillCtx);
#if defined(__x86_64__)
  tc.spillSp = reinterpret_cast<void*>(tc.spillCtx.uc_mcontext.gregs[REG_RSP]);
#elif defined(__aarch64__)
  tc.spillSp = reinterpret_cast<void*>(tc.spillCtx.uc_mcontext.sp);
#endif
#endif
}
}  // namespace

// Entry and exit pair with stop_world() Dekker-style: each side stores
// its own flag, then loads the other's, all seq_cst, so at least one of
// them sees the other. A stopper that misses the kSafe store polls again
// within 100 us; a thread that misses the stop request is seen as
// kSafe. Entry therefore wakes the stopper only while a stop is pending.
Safepoint::SafeScope::SafeScope(ThreadContext& tc) : tc_(tc) {
  spill(tc_);
  tc_.state.store(static_cast<int>(ThreadState::kSafe), std::memory_order_seq_cst);
  if (stopRequested_.load(std::memory_order_seq_cst)) gSpCv.notify_all();
}

Safepoint::SafeScope::~SafeScope() {
  for (;;) {
    tc_.state.store(static_cast<int>(ThreadState::kRunning), std::memory_order_seq_cst);
    if (!stopRequested_.load(std::memory_order_seq_cst)) return;
    // A stopper may already count this thread as stopped: step back
    // into the safe region and wait out the stop before running on.
    spill(tc_);
    tc_.state.store(static_cast<int>(ThreadState::kSafe), std::memory_order_seq_cst);
    std::unique_lock<std::mutex> lk(gSpMu);
    gSpCv.notify_all();
    gSpCv.wait(lk, [] { return !stopRequested_.load(std::memory_order_acquire); });
  }
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
  stopRequested_.store(true, std::memory_order_seq_cst);
  // Wait until every other registered thread is parked or in a safe
  // region. Poll with a timeout: threads that were already blocked in a
  // SafeScope never signal again.
  for (;;) {
    bool allStopped = true;
    TxnManager::instance().for_each_thread([&](ThreadContext* tc) {
      if (tc == &requester) return;
      if (tc->state.load(std::memory_order_seq_cst) ==
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
