// Parking-lot stress: 128-thread over-subscription of the txn-id pool
// (2.3x the 56-id capacity) asserting the wake-one discipline holds — a
// thundering herd would show as O(waiters) wakes per release — plus a
// multi-thread reader/writer churn on ONE lock word driving publish /
// try_grant_self / park / unpark_word exactly the way slow_acquire does,
// checking mutual exclusion and that the word drains to zero.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "core/fwd.h"
#include "core/ids.h"
#include "core/lockword.h"
#include "core/queue.h"
#include "core/transaction.h"

namespace sbd::core {
namespace {

TEST(ParkingStress, IdOversubscription128ThreadsWakeOneDiscipline) {
  constexpr int kThreads = 128;
  constexpr int kItersPerThread = 20;
  TxnIdPool pool;
  ASSERT_EQ(pool.available(), kMaxTxns);

  const uint64_t wakes0 = ParkingLot::counters().keyedWakes;
  std::atomic<int> concurrent{0};
  std::atomic<int> maxConcurrent{0};
  std::atomic<bool> bad{false};
  std::atomic<uint64_t> held[kMaxTxns] = {};

  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; t++) {
    ts.emplace_back([&] {
      for (int i = 0; i < kItersPerThread; i++) {
        const int id = pool.acquire();
        if (id < 0 || id >= kMaxTxns) {
          bad.store(true);
          return;
        }
        // Exclusive handout: the id must not be live anywhere else.
        if (held[id].fetch_add(1, std::memory_order_acq_rel) != 0) bad.store(true);
        const int c = concurrent.fetch_add(1, std::memory_order_acq_rel) + 1;
        int mx = maxConcurrent.load(std::memory_order_relaxed);
        while (c > mx && !maxConcurrent.compare_exchange_weak(mx, c)) {
        }
        std::this_thread::yield();
        concurrent.fetch_sub(1, std::memory_order_acq_rel);
        held[id].fetch_sub(1, std::memory_order_acq_rel);
        pool.release(id);
      }
    });
  }
  for (auto& t : ts) t.join();

  EXPECT_FALSE(bad.load()) << "duplicate or out-of-range id handed out";
  EXPECT_LE(maxConcurrent.load(), kMaxTxns);
  EXPECT_EQ(pool.available(), kMaxTxns) << "every id returned";
  EXPECT_EQ(pool.waiters(), 0);

  // No thundering herd: a notify_all design wakes O(waiters) threads per
  // release (~72 here), i.e. hundreds of thousands of wakes for this
  // run. Wake-one spends at most one wake per release.
  const uint64_t wakes = ParkingLot::counters().keyedWakes - wakes0;
  const uint64_t acquires = uint64_t{kThreads} * kItersPerThread;
  EXPECT_LE(wakes, acquires) << "wake count implies more than one wake per grant";
}

// One hot word, readers and writers mixing publish/probe/park/handoff —
// the same protocol slow_acquire runs, minus the STM around it. Checks
// writer exclusivity, reader sharing, and a fully drained word at the
// end (has-waiters bit included: a stuck bit would slow-path every
// later acquire forever).
TEST(ParkingStress, ContendedWordChurnMaintainsExclusionAndDrains) {
  constexpr int kThreads = 12;
  constexpr int kItersPerThread = 120;
  alignas(8) static LockWord word = 0;
  word = 0;
  auto& lot = ParkingLot::instance();
  auto* aw = reinterpret_cast<std::atomic<LockWord>*>(&word);

  std::atomic<int> readersIn{0};
  std::atomic<int> writersIn{0};
  std::atomic<bool> bad{false};

  std::vector<std::thread> ts;
  ts.reserve(kThreads);
  for (int t = 0; t < kThreads; t++) {
    ts.emplace_back([&, t] {
      ThreadContext tc;
      const bool writer = (t % 3) == 0;  // 1/3 writers
      const LockWord mask = txn_mask(t);
      for (int i = 0; i < kItersPerThread; i++) {
        // Acquire: fast CAS, else the full publish -> bit -> probe ->
        // park protocol.
        bool held = false;
        LockWord w = aw->load(std::memory_order_acquire);
        if (!writer && read_grabbable(w)) {
          held = aw->compare_exchange_strong(w, with_member(w, mask),
                                             std::memory_order_acq_rel);
        } else if (writer && is_free(w) && write_grabbable(w, mask)) {
          held = aw->compare_exchange_strong(w, with_writer(with_member(w, mask)),
                                             std::memory_order_acq_rel);
        }
        if (!held) {
          WaitNode node;
          node.word = &word;
          node.txnId = t;
          node.mask = mask;
          node.wantWrite = writer;
          lot.publish(node);
          w = aw->load(std::memory_order_acquire);
          while (!has_waiters(w)) {
            if (aw->compare_exchange_weak(w, with_waiters(w), std::memory_order_acq_rel))
              break;
          }
          for (;;) {
            if (lot.try_grant_self(tc, node).granted) break;
            lot.park(node, 1'000'000);
          }
        }
        // Critical section: writers alone, readers share.
        if (writer) {
          if (writersIn.fetch_add(1, std::memory_order_acq_rel) != 0) bad.store(true);
          if (readersIn.load(std::memory_order_acquire) != 0) bad.store(true);
          std::this_thread::yield();
          writersIn.fetch_sub(1, std::memory_order_acq_rel);
        } else {
          readersIn.fetch_add(1, std::memory_order_acq_rel);
          if (writersIn.load(std::memory_order_acquire) != 0) bad.store(true);
          std::this_thread::yield();
          readersIn.fetch_sub(1, std::memory_order_acq_rel);
        }
        // Release, mirroring release_all's per-word CAS + wake.
        w = aw->load(std::memory_order_acquire);
        LockWord target;
        do {
          target = without_member(w, mask);
          if (sole_member(w, mask)) target = without_writer(target);
        } while (!aw->compare_exchange_weak(w, target, std::memory_order_acq_rel));
        if (has_waiters(target)) lot.unpark_word(tc, &word);
      }
    });
  }
  for (auto& t : ts) t.join();

  EXPECT_FALSE(bad.load()) << "mutual exclusion violated";
  EXPECT_EQ(word, 0u) << "word must drain completely (waiters bit included)";
}

}  // namespace
}  // namespace sbd::core
