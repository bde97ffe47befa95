#include "core/queue.h"

#include <bit>
#include <chrono>
#include <thread>

#include "common/check.h"
#include "core/fault.h"
#include "core/transaction.h"

#if defined(__linux__)
#include <linux/futex.h>
#include <sys/syscall.h>
#include <unistd.h>

#include <cerrno>
#include <ctime>
#endif

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

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

// Local-spin budget before a waiter pays for a futex park. Small on
// purpose: on few-core hosts the grantor cannot run while we spin, so
// the budget only needs to cover the "releaser is mid-handoff on
// another core" window.
constexpr int kSpinBudget = 64;

std::atomic<uint64_t> gParked{0};
std::atomic<uint64_t> gSpunGranted{0};
std::atomic<uint64_t> gFutexWakes{0};
std::atomic<uint64_t> gHandoffs{0};
std::atomic<uint64_t> gIdWakes{0};

#if defined(__linux__)
void futex_wait(std::atomic<uint32_t>* addr, uint32_t expected, uint64_t timeoutNanos) {
  timespec ts;
  timespec* tsp = nullptr;
  if (timeoutNanos != 0) {
    ts.tv_sec = static_cast<time_t>(timeoutNanos / 1'000'000'000);
    ts.tv_nsec = static_cast<long>(timeoutNanos % 1'000'000'000);
    tsp = &ts;
  }
  // EAGAIN (value changed), EINTR, ETIMEDOUT are all fine: the caller
  // re-checks node state / word state in a loop.
  syscall(SYS_futex, reinterpret_cast<uint32_t*>(addr), FUTEX_WAIT_PRIVATE, expected,
          tsp, nullptr, 0);
}

void futex_wake_one(std::atomic<uint32_t>* addr) {
  syscall(SYS_futex, reinterpret_cast<uint32_t*>(addr), FUTEX_WAKE_PRIVATE, 1, nullptr,
          nullptr, 0);
}
#endif

}  // namespace

ParkingLot& ParkingLot::instance() {
  static ParkingLot lot;
  return lot;
}

ParkingLot::Bucket& ParkingLot::bucket_for(const LockWord* w) {
  // Fibonacci hash of the word address; low bits are alignment noise.
  uint64_t h = reinterpret_cast<uint64_t>(w) >> 3;
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

void ParkingLot::wake(WaitNode& n) {
  gFutexWakes.fetch_add(1, std::memory_order_relaxed);
#if defined(__linux__)
  futex_wake_one(&n.state);
#else
  // The node outlives this call: wakes happen under the bucket lock and
  // the waiter re-takes that lock before it can unlink and return.
  std::lock_guard<std::mutex> lk(n.mu);
  n.cv.notify_one();
#endif
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
    if (n->word == word && !n->idPool && n->txnId >= 0)
      mgr.digest_slot(n->txnId).store(0, std::memory_order_release);
}

void ParkingLot::grant_pass_locked(Bucket& b, const LockWord* word, ThreadContext& tc) {
  auto* aw = as_atomic(word);
  for (;;) {
    WaitNode* front = nullptr;
    size_t total = 0;
    for (WaitNode* n = b.head; n; n = n->next) {
      if (n->word != word || n->idPool) continue;
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
        if (n->word != word || n->idPool) continue;
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
      if (m->word != n.word || m->idPool) continue;
      isFront = false;
      if (m->txnId >= 0) ahead |= 1ULL << m->txnId;
      if (m->wantWrite || m->upgrader) aheadWriter = true;
    }
    for (WaitNode* m = n.next; m; m = m->next)
      if (m->word == n.word && !m->idPool) total++;
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
  for (int i = 0; i < kSpinBudget; i++) {
    if (n.state.load(std::memory_order_acquire) != kNodeWaiting) {
      gSpunGranted.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    cpu_relax();
  }
  gParked.fetch_add(1, std::memory_order_relaxed);
#if defined(__linux__)
  futex_wait(&n.state, kNodeWaiting, timeoutNanos);
#else
  std::unique_lock<std::mutex> lk(n.mu);
  n.cv.wait_for(lk, std::chrono::nanoseconds(timeoutNanos), [&] {
    return n.state.load(std::memory_order_acquire) != kNodeWaiting;
  });
#endif
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
    if (n->word != word || n->idPool || n->txnId != txnId) continue;
    uint32_t st = kNodeWaiting;
    if (n->state.compare_exchange_strong(st, kNodeSignaled, std::memory_order_release))
      wake(*n);
    return;
  }
}

void ParkingLot::remove(WaitNode& n) {
  Bucket& b = bucket_for(n.word);
  std::lock_guard<std::mutex> lk(b.mu);
  unlink_locked(b, n);
}

bool ParkingLot::unpark_one(const LockWord* key) {
  Bucket& b = bucket_for(key);
  std::lock_guard<std::mutex> lk(b.mu);
  maybe_delay(fault::Site::kQueueWakeup);
  for (WaitNode* n = b.head; n; n = n->next) {
    if (n->word != key || !n->idPool) continue;
    uint32_t st = kNodeWaiting;
    if (!n->state.compare_exchange_strong(st, kNodeSignaled, std::memory_order_release))
      continue;  // already signaled: do not burn the wake, try the next waiter
    gIdWakes.fetch_add(1, std::memory_order_relaxed);
    wake(*n);
    return true;
  }
  return false;
}

ParkingLot::Counters ParkingLot::counters() {
  return Counters{gParked.load(std::memory_order_relaxed),
                  gSpunGranted.load(std::memory_order_relaxed),
                  gFutexWakes.load(std::memory_order_relaxed),
                  gHandoffs.load(std::memory_order_relaxed),
                  gIdWakes.load(std::memory_order_relaxed)};
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
