// Property-style STM tests: randomized workloads over parameter sweeps
// asserting the invariants the SBD model guarantees by construction.
#include <gtest/gtest.h>

#include <atomic>

#include "api/sbd.h"
#include "common/rng.h"

namespace sbd {
namespace {

using core::TxnManager;

struct SweepParam {
  int threads;
  int opsPerThread;
  int splitEvery;  // ops per atomic section
};

void PrintTo(const SweepParam& p, std::ostream* os) {
  *os << "threads=" << p.threads << " ops=" << p.opsPerThread
      << " splitEvery=" << p.splitEvery;
}

class StmSweep : public ::testing::TestWithParam<SweepParam> {};

// Money conservation: random transfers between array slots keep the
// total constant regardless of thread count and section length.
TEST_P(StmSweep, TransfersConserveTotal) {
  const auto p = GetParam();
  constexpr int kSlots = 24;
  constexpr int64_t kInitial = 100;
  runtime::GlobalRoot<runtime::I64Array> slots;
  run_sbd([&] {
    auto a = runtime::I64Array::make(kSlots);
    for (int i = 0; i < kSlots; i++) a.init_set(i, kInitial);
    slots.set(a);
  });
  {
    std::vector<SbdThread> ts;
    for (int t = 0; t < p.threads; t++) {
      ts.emplace_back([&, t] {
        Rng rng(static_cast<uint64_t>(t) * 7919 + 13);
        for (int i = 0; i < p.opsPerThread; i++) {
          const auto from = rng.below(kSlots);
          auto to = rng.below(kSlots);
          if (to == from) to = (to + 1) % kSlots;
          auto arr = slots.get();
          const int64_t amt = 1 + static_cast<int64_t>(rng.below(5));
          if (arr.get(from) >= amt) {
            arr.set(from, arr.get(from) - amt);
            arr.set(to, arr.get(to) + amt);
          }
          if ((i + 1) % p.splitEvery == 0) split();
        }
      });
    }
    for (auto& t : ts) t.start();
    for (auto& t : ts) t.join();
  }
  run_sbd([&] {
    int64_t total = 0;
    for (int i = 0; i < kSlots; i++) total += slots.get().get(i);
    EXPECT_EQ(total, kSlots * kInitial);
  });
}

// Atomic multi-slot writes: a writer updates K slots to the same value
// per section; readers must never observe a mixed vector.
TEST_P(StmSweep, MultiSlotWritesAreAtomic) {
  const auto p = GetParam();
  constexpr int kWidth = 8;
  runtime::GlobalRoot<runtime::I64Array> row;
  run_sbd([&] { row.set(runtime::I64Array::make(kWidth)); });
  std::atomic<int> torn{0};
  std::atomic<bool> stop{false};
  {
    SbdThread writer([&] {
      for (int i = 1; i <= p.opsPerThread; i++) {
        auto arr = row.get();
        for (int k = 0; k < kWidth; k++) arr.set(k, i);
        split();
      }
      stop = true;
    });
    std::vector<SbdThread> readers;
    for (int t = 1; t < p.threads; t++) {
      readers.emplace_back([&] {
        while (!stop.load()) {
          auto arr = row.get();
          const int64_t first = arr.get(0);
          for (int k = 1; k < kWidth; k++)
            if (arr.get(k) != first) torn++;
          split();
        }
      });
    }
    writer.start();
    for (auto& r : readers) r.start();
    writer.join();
    for (auto& r : readers) r.join();
  }
  EXPECT_EQ(torn.load(), 0);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, StmSweep,
    ::testing::Values(SweepParam{1, 300, 1}, SweepParam{2, 300, 1},
                      SweepParam{4, 200, 1}, SweepParam{2, 300, 5},
                      SweepParam{4, 200, 10}, SweepParam{3, 200, 50}));

// Random mixed read/write across objects with forced aborts sprinkled
// in: after every retry storm the reachable state must be consistent.
class AbortStorm : public ::testing::TestWithParam<int> {};

TEST_P(AbortStorm, RetriesPreserveLinkedStructure) {
  const int abortEvery = GetParam();
  runtime::GlobalRoot<runtime::I64Array> cells;
  run_sbd([&] {
    auto a = runtime::I64Array::make(4);
    // invariant: cells[1] == cells[0] * 2, cells[2] == cells[0] + 1
    a.init_set(0, 10);
    a.init_set(1, 20);
    a.init_set(2, 11);
    cells.set(a);
  });
  run_sbd([&] {
    static int attempt;
    attempt = 0;
    for (int round = 1; round <= 20; round++) {
      auto a = cells.get();
      a.set(0, round);
      a.set(1, round * 2);
      if (++attempt % abortEvery == 0) {
        // Mid-section abort: the partial write of this round must not
        // survive; the retry re-runs the whole round.
        core::abort_and_restart(core::tls_context());
      }
      a.set(2, round + 1);
      split();
      // Check the invariant right after each commit.
      EXPECT_EQ(cells.get().get(1), cells.get().get(0) * 2);
      EXPECT_EQ(cells.get().get(2), cells.get().get(0) + 1);
      split();
    }
  });
}

INSTANTIATE_TEST_SUITE_P(AbortRates, AbortStorm, ::testing::Values(2, 3, 7));

// The visible-reader ordering semantics (§3.2): taking write locks in a
// fixed global order across all threads never deadlocks, even under
// maximal contention. A read-modify-write alone is not ordered that way:
// two threads can both read-lock a cell and then duel for the upgrade.
// So each cell's update is preceded by a blind write to its own guard,
// and guard write locks are taken 0 -> 3 by every thread; whoever holds
// guard k is then alone on cell k. Every waiter queues behind peers
// while the word's holder keeps changing, so the test also checks that
// stale Dreadlocks digests report no phantom cycle.
TEST(StmOrdering, OrderedAccessesNeverDeadlock) {
  runtime::GlobalRoot<runtime::I64Array> cells;
  runtime::GlobalRoot<runtime::I64Array> guards;
  run_sbd([&] {
    cells.set(runtime::I64Array::make(4));
    guards.set(runtime::I64Array::make(4));
  });
  const auto before = TxnManager::instance().snapshot_stats();
  {
    std::vector<SbdThread> ts;
    for (int t = 0; t < 4; t++) {
      ts.emplace_back([&, t] {
        for (int i = 0; i < 200; i++) {
          auto a = cells.get();
          auto g = guards.get();
          // Always guard 0 -> 1 -> 2 -> 3 (program order = lock order).
          for (int k = 0; k < 4; k++) {
            g.set(k, t);
            a.set(k, a.get(k) + 1);
          }
          split();
        }
      });
    }
    for (auto& t : ts) t.start();
    for (auto& t : ts) t.join();
  }
  const auto after = TxnManager::instance().snapshot_stats().diff(before);
  EXPECT_EQ(after.deadlocksResolved, 0u)
      << "identically ordered write locks cannot form a cycle";
  run_sbd([&] {
    for (int k = 0; k < 4; k++) EXPECT_EQ(cells.get().get(k), 800);
  });
}

}  // namespace
}  // namespace sbd
