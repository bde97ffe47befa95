// The parking lot behind the paper's §3.2 fair wait queues: per-waiter
// nodes live on the waiter's OWN stack and are linked into a bucket of a
// hashed stripe table keyed by lock-word address. A waiter spins locally
// on its node's state flag for a bounded budget, then parks on a futex
// (condvar fallback off Linux). Release performs a DIRECT HANDOFF: the
// releaser CASes the grantable prefix of the word's FIFO — readers up to
// the first writer, or one writer — into the lock word under the bucket
// lock, dequeues exactly those nodes, and wakes exactly them. Nobody
// else stirs, which is what replaced the old 63-queue global pool's
// notify_all thundering herd (and the pool's central alloc/free mutex).
//
// The lock word carries one has-waiters bit instead of the old 6-bit
// queue id (core/lockword.h): the word's address, not a pool index, maps
// to the waiters. Fairness (strict FIFO, upgraders at the front), the
// Dreadlocks digest inputs, and the GC boundObj root all ride in the
// waiter node.
//
// Lost-wakeup protocol (proved in docs/SEMANTICS.md): a waiter publishes
// its node under the bucket lock, THEN sets the has-waiters bit, THEN
// re-checks the word (try_grant_self) before parking. A releaser that
// missed the bit is therefore ordered before the waiter's re-check; a
// releaser that saw the bit runs its grant pass under the same bucket
// lock the node was published under. Either way the waiter is granted,
// never forgotten. Parks are additionally timed (the waiter re-publishes
// its deadlock digest each tick), so even a reasoning bug here degrades
// to latency, not a hang.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>

#if !defined(__linux__)
#include <condition_variable>
#endif

#include "core/fwd.h"
#include "core/lockword.h"

namespace sbd::core {

struct ThreadContext;  // defined in core/transaction.h

// Waiter-node states (the futex word). Transitions:
//   kWaiting -> kGranted   direct handoff (unpark path CASed the word for us)
//   kWaiting -> kSignaled  advisory wake (abort request, id released): re-check
//   kSignaled -> kWaiting  the signal was consumed without a grant
// kGranted is terminal: the node is already unlinked and the lock is ours.
inline constexpr uint32_t kNodeWaiting = 0;
inline constexpr uint32_t kNodeSignaled = 1;
inline constexpr uint32_t kNodeGranted = 2;

// One waiter. Allocated on the waiting thread's stack frame inside
// slow_acquire / TxnIdPool::acquire_for; never heap-allocated, never
// copied. While linked into a bucket it is a GC root for boundObj and
// the source of the "waiters ahead of me" Dreadlocks digest bits.
struct WaitNode {
  const LockWord* word = nullptr;              // bucket key (id pool: sentinel)
  runtime::ManagedObject* boundObj = nullptr;  // pins the instance while we wait
  int txnId = -1;
  LockWord mask = 0;        // txn_mask(txnId)
  bool wantWrite = false;   // true for writers AND upgraders
  bool upgrader = false;    // holds a read lock + the U bit already
  bool idPool = false;      // txn-id over-subscription waiter (no word handoff)

  std::atomic<uint32_t> state{kNodeWaiting};
  WaitNode* prev = nullptr;  // intrusive bucket list, guarded by the bucket lock
  WaitNode* next = nullptr;

#if !defined(__linux__)
  std::mutex mu;                // portable park fallback (no futex syscall)
  std::condition_variable cv;
#endif
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

  // --- id-pool waiters (core/ids.cpp) ---------------------------------------

  // Unlinks an id-pool node (no grant pass, no word bit — the sentinel
  // word is never a real lock).
  void remove(WaitNode& n);

  // Wakes the first still-kWaiting id-pool node parked on `key` (skipping
  // already-signaled ones, so one release never burns its wake on a
  // waiter that is already up). Returns true if someone was signaled.
  bool unpark_one(const LockWord* key);

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
      if (n->word != word || n->idPool) continue;
      depth++;
      if (n->txnId == txnId) me = n;
    }
    if (!me) return false;
    fn(static_cast<const WaitNode&>(*me), depth);
    return true;
  }

  // --- metrics --------------------------------------------------------------

  struct Counters {
    uint64_t parked = 0;       // futex/condvar parks entered (spin budget missed)
    uint64_t spunGranted = 0;  // grants/signals observed during the local spin
    uint64_t futexWakes = 0;   // wake syscalls issued (handoffs + signals)
    uint64_t handoffs = 0;     // nodes granted by direct handoff (unpark side)
    uint64_t idWakes = 0;      // unpark_one signals (id-pool wake-one discipline)
  };
  static Counters counters();

  // Live waiter-node count across all buckets (lock + id-pool waiters)
  // — the instantaneous parked-waiter depth the serving metrics report.
  // Takes each bucket lock briefly; export-path only, never hot.
  static size_t approx_waiters();

 private:
  ParkingLot() = default;

  struct Bucket {
    std::mutex mu;
    WaitNode* head = nullptr;
    WaitNode* tail = nullptr;
  };

  // 64 buckets: the working set of distinct CONTENDED words at any
  // instant is bounded by the live-waiter count (<= a few dozen threads),
  // so collisions are rare and a collision only shares a mutex, never
  // semantics (every list op filters on n->word).
  static constexpr size_t kBuckets = 64;

  Bucket& bucket_for(const LockWord* w);
  void link_locked(Bucket& b, WaitNode& n);
  void unlink_locked(Bucket& b, WaitNode& n);
  // Hands the grantable prefix of `word` its locks. Pre: b.mu held.
  void grant_pass_locked(Bucket& b, const LockWord* word, ThreadContext& tc);
  // Clears the Dreadlocks digests of the waiters queued on `word`.
  // Pre: b.mu held.
  static void forget_digests_locked(Bucket& b, const LockWord* word);
  static void wake(WaitNode& n);

  Bucket buckets_[kBuckets];
};

}  // namespace sbd::core
