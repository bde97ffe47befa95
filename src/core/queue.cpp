#include "core/queue.h"

#include <bit>
#include <chrono>
#include <thread>

#include "common/check.h"
#include "common/timing.h"
#include "core/fault.h"
#include "core/transaction.h"

#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <ctime>

namespace sbd::core {

namespace {

inline std::atomic<LockWord>* as_atomic(const LockWord* w) {
  static_assert(sizeof(std::atomic<LockWord>) == sizeof(LockWord));
  return reinterpret_cast<std::atomic<LockWord>*>(const_cast<LockWord*>(w));
}

// Injected scheduling perturbation: a bounded sleep at a queue
// transition. Holding the bucket mutex across the sleep is intentional —
// it is exactly the perturbation (a descheduled publisher/waker) the
// fault site models, and it widens the window in which the lock word
// and the lot disagree.
inline void maybe_delay(fault::Site site) {
  if (const uint64_t ns = fault::fire_delay_nanos(site))
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
}

// Local-spin budget of a lock-word waiter before it pays for a futex
// park. Small on purpose: on few-core hosts the grantor cannot run
// while we spin, so the budget only needs to cover the "releaser is
// mid-handoff on another core" window, not a request round trip.
constexpr int kLockSpinPauses = 64;

std::atomic<uint64_t> gParked{0};
std::atomic<uint64_t> gSpunGranted{0};
std::atomic<uint64_t> gFutexWakes{0};
std::atomic<uint64_t> gHandoffs{0};
std::atomic<uint64_t> gKeyedWakes{0};

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

// The one spin loop: polls `ready` with a pause between polls until it
// holds or the budget runs out — `maxNanos` of wall clock if non-zero,
// else `maxPauses` pauses. Returns whether `ready` held. The spin never
// decides anything: a miss (or one CPU, where the awaited thread
// cannot run meanwhile) only delays the park.
template <class Ready>
bool spin_until(Ready ready, int maxPauses, uint64_t maxNanos) {
  const uint64_t end = maxNanos != 0 ? now_nanos() + maxNanos : 0;
  for (int i = 0;; i++) {
    if (ready()) return true;
    if (end != 0 ? now_nanos() >= end : i >= maxPauses) return false;
    cpu_relax();
  }
}

// Sleeps while n.state is kNodeWaiting, for at most `timeoutNanos`
// (0 = no limit). EAGAIN (the state already changed), EINTR and
// ETIMEDOUT are all fine: every caller re-checks in a loop.
void sleep_on(WaitNode& n, uint64_t timeoutNanos) {
  gParked.fetch_add(1, std::memory_order_relaxed);
  timespec ts{static_cast<time_t>(timeoutNanos / 1'000'000'000),
              static_cast<long>(timeoutNanos % 1'000'000'000)};
  syscall(SYS_futex, reinterpret_cast<uint32_t*>(&n.state), FUTEX_WAIT_PRIVATE, kNodeWaiting,
          timeoutNanos != 0 ? &ts : nullptr, nullptr, 0);
}

// Wakes the sleeper of a node whose state just left kNodeWaiting. The
// node outlives this call: wakes happen under the bucket lock, and the
// waiter re-takes that lock before it can return.
void wake(WaitNode& n) {
  gFutexWakes.fetch_add(1, std::memory_order_relaxed);
  syscall(SYS_futex, reinterpret_cast<uint32_t*>(&n.state), FUTEX_WAKE_PRIVATE, 1, nullptr,
          nullptr, 0);
}

}  // namespace

ParkingLot& ParkingLot::instance() {
  static ParkingLot lot;
  return lot;
}

ParkingLot::Bucket& ParkingLot::bucket_for(const void* key) {
  // Fibonacci hash of the address; low bits are alignment noise.
  uint64_t h = reinterpret_cast<uint64_t>(key) >> 3;
  h *= 0x9E3779B97F4A7C15ULL;
  return buckets_[(h >> 58) & (kBuckets - 1)];
}

void ParkingLot::link_locked(Bucket& b, WaitNode& n) {
  if (n.upgrader) {
    // Upgrading readers enter at the FRONT of their word's queue (§3.2).
    // Bucket lists interleave words, so "front" = before the word's
    // first node; relative order of other words is untouched.
    for (WaitNode* m = b.head; m; m = m->next) {
      if (m->word != n.word) continue;
      n.prev = m->prev;
      n.next = m;
      if (m->prev)
        m->prev->next = &n;
      else
        b.head = &n;
      m->prev = &n;
      return;
    }
  }
  n.prev = b.tail;
  n.next = nullptr;
  if (b.tail)
    b.tail->next = &n;
  else
    b.head = &n;
  b.tail = &n;
}

void ParkingLot::unlink_locked(Bucket& b, WaitNode& n) {
  if (n.prev)
    n.prev->next = n.next;
  else
    b.head = n.next;
  if (n.next)
    n.next->prev = n.prev;
  else
    b.tail = n.prev;
  n.prev = nullptr;
  n.next = nullptr;
}

void ParkingLot::publish(WaitNode& n) {
  SBD_DCHECK(n.word != nullptr);
  Bucket& b = bucket_for(n.word);
  std::lock_guard<std::mutex> lk(b.mu);
  maybe_delay(fault::Site::kQueueEnqueue);
  n.state.store(kNodeWaiting, std::memory_order_relaxed);
  link_locked(b, n);
}

// A grant pass runs because a member or a waiter left `word`, so the
// published Dreadlocks digest of every waiter still queued there may
// name it. The one that left can then queue behind such a waiter and
// read its own bit back: a phantom cycle. Clearing is safe: each queued
// waiter publishes a fresh digest from its next probe, so a real cycle
// through it is still found within one park tick.
void ParkingLot::forget_digests_locked(Bucket& b, const LockWord* word) {
  auto& mgr = TxnManager::instance();
  for (WaitNode* n = b.head; n; n = n->next)
    if (n->word == word && n->txnId >= 0)
      mgr.digest_slot(n->txnId).store(0, std::memory_order_release);
}

void ParkingLot::grant_pass_locked(Bucket& b, const LockWord* word, ThreadContext& tc) {
  auto* aw = as_atomic(word);
  for (;;) {
    WaitNode* front = nullptr;
    size_t total = 0;
    for (WaitNode* n = b.head; n; n = n->next) {
      if (n->word != word) continue;
      if (!front) front = n;
      total++;
    }
    LockWord w = aw->load(std::memory_order_acquire);
    if (!front) {
      // Queue drained: the has-waiters bit must drop with it, or every
      // future acquirer slow-paths into an empty lot forever. Failed
      // detach CASes count — they are contention like any other
      // (the accounting gap the old maybe_detach had).
      while (has_waiters(w)) {
        if (aw->compare_exchange_weak(w, without_waiters(w), std::memory_order_acq_rel))
          break;
        tc.stats.casFailures++;
      }
      return;
    }
    // The grantable prefix: one upgrader (sole member), one writer
    // (free word), or every leading reader up to the first writer.
    WaitNode* grant[kMaxTxns];
    size_t ng = 0;
    LockWord target = w;
    if (front->upgrader) {
      if (sole_member(w, front->mask) && !has_writer(w)) {
        grant[ng++] = front;
        target = without_upgrader(with_writer(w));
      }
    } else if (front->wantWrite) {
      if (is_free(w) && !has_upgrader(w)) {
        grant[ng++] = front;
        target = with_writer(with_member(w, front->mask));
      }
    } else if (!has_writer(w) && !has_upgrader(w)) {
      for (WaitNode* n = front; n; n = n->next) {
        if (n->word != word) continue;
        if (n->wantWrite || n->upgrader) break;
        grant[ng++] = n;
        target = with_member(target, n->mask);
      }
    }
    if (ng == 0) {
      forget_digests_locked(b, word);
      return;
    }
    if (ng == total) target = without_waiters(target);
    if (aw->compare_exchange_strong(w, target, std::memory_order_acq_rel)) {
      gHandoffs.fetch_add(ng, std::memory_order_relaxed);
      for (size_t i = 0; i < ng; i++) {
        unlink_locked(b, *grant[i]);
        // The release store publishes the handoff; the waiter's acquire
        // load of kNodeGranted is the happens-before edge that carries
        // lock ownership (TSan sees this even though the futex syscall
        // itself is invisible to it).
        grant[i]->state.store(kNodeGranted, std::memory_order_release);
        wake(*grant[i]);
      }
      forget_digests_locked(b, word);
      return;
    }
    tc.stats.casFailures++;  // a racing release/upgrade moved the word; retry
  }
}

GrantProbe ParkingLot::try_grant_self(ThreadContext& tc, WaitNode& n) {
  Bucket& b = bucket_for(n.word);
  std::lock_guard<std::mutex> lk(b.mu);
  if (n.state.load(std::memory_order_acquire) == kNodeGranted)
    return {true, 0};  // handoff already unlinked us and CASed the word
  auto* aw = as_atomic(n.word);
  for (;;) {
    // Same-word waiters ahead of us: digest bits + eligibility.
    uint64_t ahead = 0;
    bool aheadWriter = false;
    bool isFront = true;
    size_t total = 1;
    for (WaitNode* m = b.head; m && m != &n; m = m->next) {
      if (m->word != n.word) continue;
      isFront = false;
      if (m->txnId >= 0) ahead |= 1ULL << m->txnId;
      if (m->wantWrite || m->upgrader) aheadWriter = true;
    }
    for (WaitNode* m = n.next; m; m = m->next)
      if (m->word == n.word) total++;
    if (!isFront) total++;  // at least one ahead (exact count not needed)

    LockWord w = aw->load(std::memory_order_acquire);
    bool eligible;
    LockWord target;
    if (n.upgrader) {
      eligible = sole_member(w, n.mask) && !has_writer(w);
      target = without_upgrader(with_writer(w));
    } else if (n.wantWrite) {
      eligible = isFront && is_free(w) && !has_upgrader(w);
      target = with_writer(with_member(w, n.mask));
    } else {
      eligible = !aheadWriter && !has_writer(w) && !has_upgrader(w);
      target = with_member(w, n.mask);
    }
    if (!eligible) {
      // Consume an advisory signal so the next park actually sleeps.
      uint32_t st = kNodeSignaled;
      n.state.compare_exchange_strong(st, kNodeWaiting, std::memory_order_relaxed);
      const uint64_t blockers = (members(w) & ~n.mask) | ahead;
      uint64_t digest = blockers;
      auto& mgr = TxnManager::instance();
      for (uint64_t scan = blockers; scan; scan &= scan - 1) {
        const int d = std::countr_zero(scan);
        // A member that still reads as waiting on this very word was
        // just granted it and has not left its wait yet: its digest is
        // from that wait and may name us.
        const Transaction* t = mgr.lookup(d);
        if ((ahead >> d & 1) == 0 && t && t->waiting_on() == n.word) continue;
        digest |= mgr.digest_slot(d).load(std::memory_order_acquire);
      }
      if (n.txnId >= 0) mgr.digest_slot(n.txnId).store(digest, std::memory_order_release);
      return {false, digest};
    }
    const bool lastNode = isFront && total == 1;
    if (lastNode) target = without_waiters(target);
    if (aw->compare_exchange_strong(w, target, std::memory_order_acq_rel)) {
      unlink_locked(b, n);
      return {true, 0};
    }
    tc.stats.casFailures++;
  }
}

CancelResult ParkingLot::cancel(ThreadContext& tc, WaitNode& n) {
  Bucket& b = bucket_for(n.word);
  std::lock_guard<std::mutex> lk(b.mu);
  if (n.state.load(std::memory_order_acquire) == kNodeGranted)
    return CancelResult::kWasGranted;
  unlink_locked(b, n);
  // Our departure can unblock successors (a leaving front writer frees
  // the readers behind it) and must drop the has-waiters bit if the
  // queue emptied; the grant pass handles both.
  grant_pass_locked(b, n.word, tc);
  return CancelResult::kRemoved;
}

void ParkingLot::park(WaitNode& n, uint64_t timeoutNanos) {
  if (spin_until([&] { return n.state.load(std::memory_order_acquire) != kNodeWaiting; },
                 kLockSpinPauses, 0)) {
    gSpunGranted.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  sleep_on(n, timeoutNanos);
}

void ParkingLot::unpark_word(ThreadContext& tc, const LockWord* word) {
  Bucket& b = bucket_for(word);
  std::lock_guard<std::mutex> lk(b.mu);
  maybe_delay(fault::Site::kQueueWakeup);
  grant_pass_locked(b, word, tc);
}

void ParkingLot::unpark_txn(const LockWord* word, int txnId) {
  Bucket& b = bucket_for(word);
  std::lock_guard<std::mutex> lk(b.mu);
  for (WaitNode* n = b.head; n; n = n->next) {
    if (n->word != word || n->txnId != txnId) continue;
    uint32_t st = kNodeWaiting;
    if (n->state.compare_exchange_strong(st, kNodeSignaled, std::memory_order_release))
      wake(*n);
    return;
  }
}

// Keyed waits. No lost wakeup (docs/SEMANTICS.md): the waiter raises
// keyedCount and then re-checks stillBlocked, the waker stores its
// state change and then reads keyedCount, with a seq_cst fence between
// each pair. Either the recheck sees the change, or the waker sees the
// count and takes the bucket lock, which the waiter held from the
// count until its node was linked.
ParkResult ParkingLot::park_keyed(const void* key, BlockedFn blocked, const void* ctx,
                                  uint64_t spinNanos, uint64_t deadlineNanos) {
  // With spinNanos == 0 this is one lock-free check.
  if (spin_until([&] { return !blocked(ctx); }, 0, spinNanos)) {
    if (spinNanos != 0) gSpunGranted.fetch_add(1, std::memory_order_relaxed);
    return ParkResult::kNotBlocked;
  }
  Bucket& b = bucket_for(key);
  WaitNode n;
  n.word = static_cast<const LockWord*>(key);  // a key, never a real lock word
  {
    std::lock_guard<std::mutex> lk(b.mu);
    b.keyedCount.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    // One recheck decides: a second read could see another thread's
    // change and report a timeout before the deadline.
    const bool stillBlocked = blocked(ctx);
    if (!stillBlocked || now_nanos() >= deadlineNanos) {
      b.keyedCount.fetch_sub(1, std::memory_order_relaxed);
      return stillBlocked ? ParkResult::kTimedOut : ParkResult::kNotBlocked;
    }
    link_locked(b, n);
  }
  for (uint64_t now; n.state.load(std::memory_order_acquire) == kNodeWaiting &&
                     (now = now_nanos()) < deadlineNanos;)
    sleep_on(n, deadlineNanos == kNoDeadline ? 0 : deadlineNanos - now);
  std::lock_guard<std::mutex> lk(b.mu);
  // Signaled: the unpark already unlinked and uncounted us.
  if (n.state.load(std::memory_order_acquire) != kNodeWaiting) return ParkResult::kUnparked;
  unlink_locked(b, n);
  b.keyedCount.fetch_sub(1, std::memory_order_relaxed);
  return ParkResult::kTimedOut;
}

size_t ParkingLot::unpark(const void* key, size_t max) {
  Bucket& b = bucket_for(key);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (b.keyedCount.load(std::memory_order_relaxed) == 0) return 0;
  std::lock_guard<std::mutex> lk(b.mu);
  maybe_delay(fault::Site::kQueueWakeup);
  size_t woken = 0;
  for (WaitNode* n = b.head; n && woken < max;) {
    WaitNode* next = n->next;
    if (n->word == key) {
      unlink_locked(b, *n);
      b.keyedCount.fetch_sub(1, std::memory_order_relaxed);
      n->state.store(kNodeSignaled, std::memory_order_release);
      wake(*n);
      woken++;
    }
    n = next;
  }
  gKeyedWakes.fetch_add(woken, std::memory_order_relaxed);
  return woken;
}

size_t ParkingLot::parked_on(const void* key) {
  Bucket& b = bucket_for(key);
  std::lock_guard<std::mutex> lk(b.mu);
  size_t n = 0;
  for (WaitNode* w = b.head; w; w = w->next) n += w->word == key;
  return n;
}

ParkingLot::Counters ParkingLot::counters() {
  return Counters{gParked.load(std::memory_order_relaxed),
                  gSpunGranted.load(std::memory_order_relaxed),
                  gFutexWakes.load(std::memory_order_relaxed),
                  gHandoffs.load(std::memory_order_relaxed),
                  gKeyedWakes.load(std::memory_order_relaxed)};
}

size_t ParkingLot::approx_waiters() {
  ParkingLot& lot = instance();
  size_t depth = 0;
  for (size_t i = 0; i < kBuckets; i++) {
    std::lock_guard<std::mutex> lk(lot.buckets_[i].mu);
    for (WaitNode* n = lot.buckets_[i].head; n; n = n->next) depth++;
  }
  return depth;
}

}  // namespace sbd::core
