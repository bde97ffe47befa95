#include "threads/sbd_thread.h"

#include <atomic>
#include <mutex>
#include <thread>

#include "common/check.h"
#include "core/queue.h"
#include "core/transaction.h"
#include "runtime/heap.h"

namespace sbd::threads {

struct SbdThread::Impl {
  std::function<void()> body;
  std::thread osThread;
  std::mutex mu;  // orders launch's osThread store before `finished`
  bool launched = false;
  std::atomic<bool> finished{false};  // join parks on its address
};

namespace {

// Zeroes the dead stack region below the caller before an SBD episode
// starts. The GC scans thread stacks and checkpoint stack snapshots
// conservatively, so a stale pointer left in frame slack by a PREVIOUS
// episode can resurrect an object that is otherwise garbage — and once
// such a pointer is captured into a checkpoint's stack copy, no number
// of re-collections can drop it. Clearing the region the episode's
// frames will occupy makes retention independent of frame layout.
__attribute__((noinline)) void scrub_dead_stack() {
  char scrub[128 * 1024];
  __builtin_memset(scrub, 0, sizeof(scrub));
  asm volatile("" ::"r"(scrub) : "memory");  // keep the memset
}

// Owns the stack bytes the checkpoint anchor points into: every frame
// that takes or restores checkpoints is a callee of this function, so
// restores never write beyond the pad (which is dead data).
//
// The pad must be fully zeroed: the bytes below the anchor are captured
// into every checkpoint's stack snapshot, and an uninitialized pad can
// hold a stale pointer spilled there by a previous episode's frames.
__attribute__((noinline)) void run_sections_with_anchor(
    core::ThreadContext& tc, const std::function<void()>& body) {
  volatile char pad[1024];
  for (size_t i = 0; i < sizeof(pad); i++) pad[i] = 0;
  tc.engine.set_anchor_at(const_cast<char*>(&pad[512]));
  core::begin_initial_section(tc);
  const int savedDepth = tc.canSplitDepth;
  tc.canSplitDepth = 1;  // entry points are canSplit by default (§2.2)
  body();
  tc.canSplitDepth = savedDepth;
  core::end_final_section(tc);
  tc.engine.clear_anchor();
}

void thread_entry(const std::shared_ptr<SbdThread::Impl>& impl) {
  auto& tc = core::tls_context();
  runtime::Heap::instance().attach_current_thread_here();  // GC scan bound
  scrub_dead_stack();
  run_sections_with_anchor(tc, impl->body);
  {
    std::lock_guard<std::mutex> lk(impl->mu);
    impl->finished.store(true, std::memory_order_release);
  }
  core::ParkingLot::instance().unpark_all(&impl->finished);
}

void launch(const std::shared_ptr<SbdThread::Impl>& impl) {
  std::lock_guard<std::mutex> lk(impl->mu);
  SBD_CHECK_MSG(!impl->launched, "SbdThread started twice");
  impl->launched = true;
  impl->osThread = std::thread([impl] { thread_entry(impl); });
}

}  // namespace

SbdThread::SbdThread(std::function<void()> body) : impl_(std::make_shared<Impl>()) {
  impl_->body = std::move(body);
}

SbdThread::~SbdThread() {
  if (impl_ && impl_->osThread.joinable()) impl_->osThread.join();
}

SbdThread::SbdThread(SbdThread&&) noexcept = default;
SbdThread& SbdThread::operator=(SbdThread&&) noexcept = default;

void SbdThread::start() {
  auto* tc = core::tls_context_if_present();
  if (tc && tc->txn.active()) {
    // Deferred thread start (§3.5): the child launches only when the
    // starting section commits.
    auto impl = impl_;
    tc->txn.defer([impl] { launch(impl); });
  } else {
    launch(impl_);
  }
}

void SbdThread::join() {
  // Raw pointer only: this frame is re-unwound if the section that
  // starts inside split_section_releasing_id aborts, so it must not
  // hold a shared_ptr copy (double release on restore). `impl_` in the
  // SbdThread object keeps the Impl alive across the wait.
  Impl* impl = impl_.get();
  auto blocked = [impl] {
    auto& tc = core::tls_context();
    {
      core::Safepoint::SafeScope safe(tc);
      auto running = [impl] { return !impl->finished.load(std::memory_order_acquire); };
      auto& lot = core::ParkingLot::instance();
      while (running()) lot.park(&impl->finished, running, 0, core::kNoDeadline);
    }
    if (impl->osThread.joinable()) impl->osThread.join();
  };
  auto* tc = core::tls_context_if_present();
  if (tc && tc->txn.active()) {
    // Join always splits first (§3.5): the split commits this section,
    // which runs the deferred start, and releases our transaction id so
    // the child can get one.
    core::split_section_releasing_id(*tc, blocked);
  } else {
    blocked();
  }
}

bool SbdThread::finished() const { return impl_->finished.load(std::memory_order_acquire); }

void run_sbd(const std::function<void()>& body) {
  auto& tc = core::tls_context();
  SBD_CHECK_MSG(!tc.txn.active(), "run_sbd cannot nest");
  runtime::Heap::instance().attach_current_thread_here();
  scrub_dead_stack();
  run_sections_with_anchor(tc, body);
}

bool in_sbd() {
  auto* tc = core::tls_context_if_present();
  return tc && tc->txn.active();
}

}  // namespace sbd::threads
