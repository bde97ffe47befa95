#include <chrono>
#include <thread>

#include "common/check.h"
#include "common/timing.h"
#include "core/fault.h"
#include "core/obs.h"
#include "core/queue.h"
#include "core/transaction.h"

namespace sbd::core {

std::atomic<bool> Safepoint::stopRequested_{false};

namespace {
// The one stopper at a time; a second one parks on this key.
std::atomic<ThreadContext*> gStopper{nullptr};
// Bumped each time a thread stops counting as running while a stop is
// pending; the stopper parks on it between scans of the registry.
std::atomic<uint64_t> gStopEpoch{0};

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

// Marks `tc` as `stopped` (kSafe or kParked) and waits out every
// pending stop, then marks it running. Pre: the thread's last spill
// covers every reference it holds. It stays valid across the loop, as
// only runtime code runs here; not re-spilling keeps the GC's read of
// the spill race-free.
void Safepoint::wait_out_stop(ThreadContext& tc, ThreadState stopped) {
  auto& lot = ParkingLot::instance();
  do {
    tc.state.store(static_cast<int>(stopped), std::memory_order_seq_cst);
    notify_stopper();
    while (stopRequested_.load(std::memory_order_seq_cst))
      lot.park(&stopRequested_, [] { return stopRequested_.load(std::memory_order_relaxed); },
               0, kNoDeadline);
    tc.state.store(static_cast<int>(ThreadState::kRunning), std::memory_order_seq_cst);
  } while (stopRequested_.load(std::memory_order_seq_cst));
}

void Safepoint::notify_stopper() {
  gStopEpoch.fetch_add(1, std::memory_order_seq_cst);
  ParkingLot::instance().unpark_one(&gStopEpoch);
}

// Entry and exit pair with stop_world() Dekker-style: each side stores
// its own flag (the thread state, stopRequested_), then loads the
// other's, all seq_cst, so at least one of them sees the other. A
// stopper that misses the kSafe store is woken through the epoch; a
// thread that misses the stop request is seen as kSafe. Neither side
// touches the parking lot unless a stop is pending (docs/SEMANTICS.md).
Safepoint::SafeScope::SafeScope(ThreadContext& tc) : tc_(tc) {
  spill(tc_);
  tc_.state.store(static_cast<int>(ThreadState::kSafe), std::memory_order_seq_cst);
  if (stopRequested_.load(std::memory_order_seq_cst)) notify_stopper();
}

Safepoint::SafeScope::~SafeScope() {
  tc_.state.store(static_cast<int>(ThreadState::kRunning), std::memory_order_seq_cst);
  // A stopper may already count this thread as stopped: step back into
  // the safe region and wait out the stop before running on. The entry
  // spill still covers the thread: the enclosed wait holds no
  // references of its own.
  if (stopRequested_.load(std::memory_order_seq_cst)) wait_out_stop(tc_, ThreadState::kSafe);
}

void Safepoint::park(ThreadContext& tc) {
  // Fault site: a mutator slow to reach its safepoint, which stretches
  // every stop-the-world (GC, sampler).
  if (const uint64_t d = fault::fire_delay_nanos(fault::Site::kSafepointPark))
    std::this_thread::sleep_for(std::chrono::nanoseconds(d));
  if (!stopRequested_.load(std::memory_order_seq_cst)) return;
  spill(tc);
  wait_out_stop(tc, ThreadState::kParked);
}

void Safepoint::stop_world(ThreadContext& requester) {
  const uint64_t t0 = now_nanos();
  auto& lot = ParkingLot::instance();
  // Queue behind another stopper (GC, sampler) as a mutator: once it
  // raises its request, wait that stop out counted as parked, or it
  // would wait on us forever while we wait on it.
  for (ThreadContext* none = nullptr;
       !gStopper.compare_exchange_strong(none, &requester, std::memory_order_seq_cst);
       none = nullptr) {
    if (stopRequested_.load(std::memory_order_seq_cst)) {
      spill(requester);
      wait_out_stop(requester, ThreadState::kParked);
    } else {
      lot.park(&gStopper,
               [] {
                 return gStopper.load(std::memory_order_relaxed) != nullptr &&
                        !stopRequested_.load(std::memory_order_relaxed);
               },
               0, kNoDeadline);
    }
  }
  stopRequested_.store(true, std::memory_order_seq_cst);
  lot.unpark_all(&gStopper);  // queued stoppers now wait this stop out
  // Wait until every other registered thread is parked or in a safe
  // region. Read the epoch before each scan: a thread the scan sees
  // running bumps it once it stops (or unregisters), so the park
  // returns. The predicate reads only the epoch, never the registry —
  // the GC takes the registry lock and then every bucket lock.
  for (;;) {
    const uint64_t epoch = gStopEpoch.load(std::memory_order_seq_cst);
    bool allStopped = true;
    TxnManager::instance().for_each_thread([&](ThreadContext* tc) {
      if (tc == &requester) return;
      if (tc->state.load(std::memory_order_seq_cst) ==
          static_cast<int>(ThreadState::kRunning))
        allStopped = false;
    });
    if (allStopped) break;
    lot.park(&gStopEpoch,
             [epoch] { return gStopEpoch.load(std::memory_order_relaxed) == epoch; }, 0,
             kNoDeadline);
  }
  if (obs::enabled())
    obs::record(obs::EventKind::kSafepointStop, requester.txn.id(), -1, nullptr,
                nullptr, obs::kNoIndex, false, now_nanos() - t0);
}

void Safepoint::resume_world(ThreadContext& requester) {
  SBD_CHECK(gStopper.load(std::memory_order_relaxed) == &requester);
  auto& lot = ParkingLot::instance();
  // Clear the request before giving up the stopper role: a queued
  // stopper must not raise its own request only to see it cleared.
  stopRequested_.store(false, std::memory_order_seq_cst);
  lot.unpark_all(&stopRequested_);
  gStopper.store(nullptr, std::memory_order_seq_cst);
  lot.unpark_all(&gStopper);
}

}  // namespace sbd::core
