// The transaction-id pool: at most kMaxTxns (56) transactions run
// concurrently, one bit each in every lock word. The free set is split
// into shards claimed by lock-free CAS (each thread starts at a hashed
// home shard, so uncontended acquire/release never meet); when every
// shard is empty the acquirer parks in the parking lot (core/queue.h)
// keyed by the pool, and release wakes exactly ONE waiter — >56
// threads queue cheaply instead of convoying on a central mutex +
// condvar (paper §3.3 — safe because sections never nest and waiting
// threads hold no locks).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

#include "core/fwd.h"

namespace sbd::core {

class TxnIdPool {
 public:
  TxnIdPool();

  // Blocks until an id is available. Returns id in [0, kMaxTxns).
  // The caller must publish the owning Transaction via TxnManager before
  // taking any lock.
  int acquire();

  // Non-blocking variant; returns -1 if the pool is exhausted.
  int try_acquire();

  // Timeout-and-diagnose variant: blocks at most timeoutNanos
  // (kNoDeadline = no limit), returns -1 on timeout so the caller can
  // report the stall (core/watchdog.h) and keep waiting in bounded
  // slices instead of blocking invisibly.
  int acquire_for(uint64_t timeoutNanos);

  void release(int id);

  int available() const;

  // Number of threads currently parked in acquire/acquire_for.
  int waiters() const;

  // One-line snapshot ("txn-id pool: 0/56 free, 6 waiting") for stall
  // diagnostics; safe to call from any thread.
  std::string diagnose() const;

 private:
  // 4 shards x 14 ids: few enough that an exhausted-pool sweep is
  // cheap, enough that disjoint threads rarely CAS the same word.
  static constexpr int kShards = 4;
  static constexpr int kIdsPerShard = kMaxTxns / kShards;
  static_assert(kShards * kIdsPerShard == kMaxTxns, "ids must split evenly");

  // Over-subscribed acquirers park on the address of shards_.
  std::atomic<uint64_t> shards_[kShards];
};

}  // namespace sbd::core
