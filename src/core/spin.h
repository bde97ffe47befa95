// Bounded spinning before a blocking wait pays for a futex park.
//
// A waiter that is about to park polls a lock-free "ready" hint for a
// short, fixed time first. On a host where the thread being waited for
// runs on another CPU, most hand-offs land inside that window and skip
// both the park and the waker's futex wake. The spin never decides
// anything: when it ends, the caller still runs its own
// check-count-park protocol under its lock, so a spin that misses (or a
// host with one CPU, where the awaited thread cannot run meanwhile)
// only delays the park.
#pragma once

#include <cstdint>
#include <thread>

#include "common/timing.h"

namespace sbd::core {

// One polite busy-wait step. The only place the architecture's pause
// instruction is named, so non-x86 builds still compile.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

// The spin budget of the blocking waits in net::Pipe (read,
// wait_readable) and the sbd::serve ready queue. 50 µs covers a
// cross-CPU request/response hand-off on the serve path; 20 µs lost
// most of the latency gain, and 100 µs gained nothing more (DESIGN,
// "Spin, then park").
inline constexpr uint64_t kWaitSpinNanos = 50'000;

// Spins until `ready()` holds or `budgetNanos` have passed; returns
// whether it became ready.
template <class Ready>
bool spin_until(Ready ready, uint64_t budgetNanos) {
  const uint64_t deadline = now_nanos() + budgetNanos;
  for (;;) {
    if (ready()) return true;
    if (now_nanos() >= deadline) return false;
    cpu_relax();
  }
}

}  // namespace sbd::core
