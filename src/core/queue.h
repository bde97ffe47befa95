// The parking lot: the runtime's one blocking-wait mechanism, behind
// the paper's §3.2 fair wait queues and every §3.5 blocking operation.
// A waiter's node lives on its OWN stack and is linked into one of 64
// buckets hashed by the address it waits on. It spins for a bounded
// budget, then parks on a Linux futex. The lot has two clients:
//
// - Lock words (core/transaction.cpp slow_acquire). Release performs a
//   DIRECT HANDOFF: the releaser CASes the grantable prefix of the
//   word's FIFO — readers up to the first writer, or one writer — into
//   the lock word under the bucket lock, dequeues exactly those nodes,
//   and wakes exactly them. The lock word carries one has-waiters bit;
//   fairness (strict FIFO, upgraders at the front), the Dreadlocks
//   digest inputs and the GC boundObj root ride in the WaitNode.
// - Keyed waits (park / unpark_one / unpark_all, the WebKit ParkingLot
//   shape): the txn-id pool, net::Pipe, the serve ready queue and
//   shutdown drain, the db row and table locks, SbdThread::join, the
//   Monitor wait sets, the safepoint handshake, the inevitable token and
//   the watchdog's sleep. The waiter names a key and a `stillBlocked`
//   predicate over atomics; the waker changes the state the predicate
//   reads, then unparks the key.
//
// Lost-wakeup protocols (proved in docs/SEMANTICS.md). Lock words: a
// waiter publishes its node under the bucket lock, THEN sets the
// has-waiters bit, THEN re-checks the word (try_grant_self) before
// parking. Keyed waits: a waiter counts itself in its bucket, THEN
// re-checks `stillBlocked` under the bucket lock before linking its
// node; a waker stores its state change, THEN reads the bucket's count,
// and takes the bucket lock only when it is non-zero.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>

#include "core/fwd.h"
#include "core/lockword.h"

namespace sbd::core {

// The spin budget of the keyed waits on a request hand-off: the first
// wait of a net::Pipe read and of a sbd::serve ready-queue pop. 50 µs
// covers a cross-CPU request/response hand-off on the serve path;
// 20 µs lost most of the latency gain, and 100 µs gained nothing more
// (DESIGN, "The parking lot"). Lock-word waits keep a 64-pause budget
// instead, and the other keyed waits (id pool, db locks, join,
// Monitor, accept, connect, a writer waiting for room) do not spin.
inline constexpr uint64_t kWaitSpinNanos = 50'000;

// Deadline of a keyed park that waits until it is unparked.
inline constexpr uint64_t kNoDeadline = UINT64_MAX;

// How a keyed park ended.
enum class ParkResult {
  kNotBlocked,  // stillBlocked() was false during the spin or the recheck
  kUnparked,    // slept until an unpark_one/unpark_all on the key
  kTimedOut,    // the deadline passed first
};

struct ThreadContext;  // defined in core/transaction.h

// Waiter-node states (the futex word). Transitions:
//   kWaiting -> kGranted   direct handoff (unpark path CASed the word for us)
//   kWaiting -> kSignaled  advisory wake (abort request) or keyed unpark
//   kSignaled -> kWaiting  the signal was consumed without a grant
// kGranted is terminal: the node is already unlinked and the lock is ours.
// A keyed node is unlinked by the unpark that signals it.
inline constexpr uint32_t kNodeWaiting = 0;
inline constexpr uint32_t kNodeSignaled = 1;
inline constexpr uint32_t kNodeGranted = 2;

// One waiter. Allocated on the waiting thread's stack frame inside
// slow_acquire or a keyed park; never heap-allocated, never copied.
// While linked into a bucket a lock-word waiter is a GC root for
// boundObj and the source of the "waiters ahead of me" Dreadlocks
// digest bits. A keyed waiter sets only `word` (its key): a key is
// never a lock word's address, so the lock-word paths, which filter
// every list walk on the word, never see it.
struct WaitNode {
  const LockWord* word = nullptr;              // bucket key
  runtime::ManagedObject* boundObj = nullptr;  // pins the instance while we wait
  int txnId = -1;
  LockWord mask = 0;        // txn_mask(txnId)
  bool wantWrite = false;   // true for writers AND upgraders
  bool upgrader = false;    // holds a read lock + the U bit already

  std::atomic<uint32_t> state{kNodeWaiting};
  WaitNode* prev = nullptr;  // intrusive bucket list, guarded by the bucket lock
  WaitNode* next = nullptr;
};

// Result of one grant probe by the waiter itself.
struct GrantProbe {
  bool granted = false;
  // The waiter's Dreadlocks digest, computed and published in the same
  // bucket critical section as the probe (so a grant pass on the word,
  // which clears its waiters' digests, orders wholly before or after
  // it): the blockers — current members of the word minus ourselves,
  // plus every same-word waiter ahead of us — and their digests.
  uint64_t digest = 0;
};

enum class CancelResult {
  kRemoved,     // node unlinked; the caller holds nothing
  kWasGranted,  // lost the race against a handoff: the lock is OURS
};

class ParkingLot {
 public:
  static ParkingLot& instance();

  // --- lock waiters (core/transaction.cpp slow_acquire) --------------------

  // Links `n` into its word's bucket: upgraders in front of the word's
  // first waiter (§3.2), everyone else at the tail. Applies the fault
  // plan's kQueueEnqueue delay inside the bucket lock, before the node
  // becomes visible — the widened publish window seeded plans perturb.
  void publish(WaitNode& n);

  // Re-checks the word and self-grants if this waiter is at the front of
  // the grantable prefix (CASing the word under the bucket lock), or
  // absorbs a kNodeGranted handoff that already happened. Failed CASes
  // count into tc.stats.casFailures. On kNotYet the probe carries the
  // blocker set for the caller's digest update, and a pending kSignaled
  // is consumed back to kWaiting so the next park is not a no-op.
  GrantProbe try_grant_self(ThreadContext& tc, WaitNode& n);

  // Leaves the wait (abort path). If a handoff already granted the lock,
  // returns kWasGranted and the caller MUST treat the lock as held
  // (record it so release_all frees it). Otherwise unlinks the node and
  // re-runs the grant pass — removing a front writer can unblock the
  // readers parked behind it — clearing the has-waiters bit when the
  // word's queue emptied.
  CancelResult cancel(ThreadContext& tc, WaitNode& n);

  // Local spin (bounded), then park until granted/signaled or
  // `timeoutNanos` elapses. Called WITHOUT the bucket lock; the caller
  // wraps it in a Safepoint::SafeScope. Spurious returns are fine — the
  // caller loops through try_grant_self.
  void park(WaitNode& n, uint64_t timeoutNanos);

  // --- release / abort side -------------------------------------------------

  // The releaser's wake: grant the word's grantable prefix by direct
  // handoff and wake exactly those nodes. Applies the fault plan's
  // kQueueWakeup delay inside the bucket lock, before the handoff.
  void unpark_word(ThreadContext& tc, const LockWord* word);

  // Advisory wake of one specific waiter (deadlock victim, watchdog
  // abort): flips its node kWaiting -> kSignaled and wakes it so it
  // notices its abort flag now instead of at the next timed-park tick.
  // `word` is used purely as a hash key and list filter, never
  // dereferenced — safe even if the victim already left.
  void unpark_txn(const LockWord* word, int txnId);

  // --- keyed waits ------------------------------------------------------------

  // Waits on `key` while `stillBlocked()` holds: spins for `spinNanos`,
  // then parks until an unpark on `key` or until `deadlineNanos` (on
  // the now_nanos() clock; kNoDeadline = none). `stillBlocked` must
  // read only atomics: it runs during the spin and once more under the
  // bucket lock, after the waiter counted itself in the bucket. The
  // result is a hint — callers re-check their own state and loop.
  template <class Blocked>
  ParkResult park(const void* key, const Blocked& stillBlocked, uint64_t spinNanos,
                  uint64_t deadlineNanos) {
    return park_keyed(
        key, [](const void* f) { return (*static_cast<const Blocked*>(f))(); },
        &stillBlocked, spinNanos, deadlineNanos);
  }

  // Wake one / every waiter parked on `key`. Call after the state change
  // that unblocks them. A bucket with no parked keyed waiter costs a
  // fence and a load: no lock, no syscall. `key` is never dereferenced.
  bool unpark_one(const void* key) { return unpark(key, 1) != 0; }
  size_t unpark_all(const void* key) { return unpark(key, SIZE_MAX); }

  // Keyed waiters currently parked on `key` (diagnostics).
  size_t parked_on(const void* key);

  // --- GC / watchdog --------------------------------------------------------

  // Enumerates the boundObj of every parked lock waiter (stop-the-world
  // root scan). Mutators never hold a bucket lock across a safepoint, so
  // taking every bucket lock here cannot deadlock against a stopped
  // thread.
  template <typename Fn>
  void for_each_bound(Fn&& fn) {
    for (size_t i = 0; i < kBuckets; i++) {
      std::lock_guard<std::mutex> lk(buckets_[i].mu);
      for (WaitNode* n = buckets_[i].head; n; n = n->next)
        if (n->boundObj) fn(n->boundObj);
    }
  }

  // Finds txnId's node for `word` and calls fn(node, queueDepth) under
  // the bucket lock (queueDepth = same-word waiters). Returns false if
  // the waiter already left. Watchdog stall symbolization.
  template <typename Fn>
  bool with_waiter(const LockWord* word, int txnId, Fn&& fn) {
    Bucket& b = bucket_for(word);
    std::lock_guard<std::mutex> lk(b.mu);
    WaitNode* me = nullptr;
    size_t depth = 0;
    for (WaitNode* n = b.head; n; n = n->next) {
      if (n->word != word) continue;
      depth++;
      if (n->txnId == txnId) me = n;
    }
    if (!me) return false;
    fn(static_cast<const WaitNode&>(*me), depth);
    return true;
  }

  // --- metrics --------------------------------------------------------------

  struct Counters {
    uint64_t parked = 0;       // parks that slept (spin budget missed), every client
    uint64_t spunGranted = 0;  // waits that ended during the spin
    uint64_t futexWakes = 0;   // wake syscalls issued (handoffs, signals, unparks)
    uint64_t handoffs = 0;     // nodes granted by direct handoff (unpark side)
    uint64_t keyedWakes = 0;   // keyed waiters woken by unpark_one/unpark_all
  };
  static Counters counters();

  // Live waiter-node count across all buckets (lock + keyed waiters)
  // — the instantaneous parked-waiter depth the serving metrics report.
  // Takes each bucket lock briefly; export-path only, never hot.
  static size_t approx_waiters();

 private:
  ParkingLot() = default;

  struct Bucket {
    std::mutex mu;
    WaitNode* head = nullptr;
    WaitNode* tail = nullptr;
    // Linked keyed nodes. Raised under mu before the waiter's recheck;
    // read without mu by every unpark (the no-lock, no-syscall path).
    std::atomic<uint32_t> keyedCount{0};
  };

  // 64 buckets: the working set of distinct CONTENDED words at any
  // instant is bounded by the live-waiter count (<= a few dozen threads),
  // so collisions are rare and a collision only shares a mutex, never
  // semantics (every list op filters on n->word).
  static constexpr size_t kBuckets = 64;

  using BlockedFn = bool (*)(const void*);
  ParkResult park_keyed(const void* key, BlockedFn blocked, const void* ctx,
                        uint64_t spinNanos, uint64_t deadlineNanos);
  size_t unpark(const void* key, size_t max);

  Bucket& bucket_for(const void* key);
  void link_locked(Bucket& b, WaitNode& n);
  void unlink_locked(Bucket& b, WaitNode& n);
  // Hands the grantable prefix of `word` its locks. Pre: b.mu held.
  void grant_pass_locked(Bucket& b, const LockWord* word, ThreadContext& tc);
  // Clears the Dreadlocks digests of the waiters queued on `word`.
  // Pre: b.mu held.
  static void forget_digests_locked(Bucket& b, const LockWord* word);

  Bucket buckets_[kBuckets];
};

// The hand-off wait of net::Pipe reads and the serve ready queue:
// waits until `ready()` holds under `mu`, parking on `flag` (a
// lock-free mirror of `ready()`, written under `mu`) while it reads
// false. Only the first wait spins, kWaitSpinNanos: a waiter that lost
// the hand-off to another parks at once instead of spinning hot for
// the next one. Counts a wait that ended without sleeping in `spun`,
// one that slept in `parked`. Returns with `mu` held.
template <class Ready>
std::unique_lock<std::mutex> await_handoff(const std::atomic<bool>& flag, std::mutex& mu,
                                           Ready ready, std::atomic<uint64_t>& spun,
                                           std::atomic<uint64_t>& parked) {
  bool waited = false, slept = false;
  for (uint64_t spin = kWaitSpinNanos;; spin = 0) {
    if (!flag.load(std::memory_order_relaxed)) {
      waited = true;
      slept |= ParkingLot::instance().park(
                   &flag, [&flag] { return !flag.load(std::memory_order_relaxed); }, spin,
                   kNoDeadline) == ParkResult::kUnparked;
    }
    std::unique_lock<std::mutex> lk(mu);
    if (!ready()) continue;  // another waiter took it
    if (waited) (slept ? parked : spun).fetch_add(1, std::memory_order_relaxed);
    return lk;
  }
}

}  // namespace sbd::core
