// Thread operations: signalling, barrier (Fig. 6), thread locals.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "api/sbd.h"
#include "threads/barrier.h"
#include "threads/tx_local.h"

namespace sbd::threads {
namespace {

class Box : public runtime::TypedRef<Box> {
 public:
  SBD_CLASS(Box, SBD_SLOT("v"))
  SBD_FIELD_I64(0, v)
};

TEST(Monitor, WaitNotifyHandshake) {
  runtime::GlobalRoot<Box> cond;
  run_sbd([&] {
    Box b = Box::alloc();
    b.init_v(0);
    cond.set(b);
  });
  std::atomic<bool> sawUpdate{false};
  {
    SbdThread waiter([&] {
      Box b = cond.get();
      while (b.v() == 0) {
        wait_on(b.raw());
      }
      sawUpdate = b.v() == 1;
    });
    SbdThread setter([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      Box b = cond.get();
      b.set_v(1);
      notify_all(b.raw());
      split();  // deliver the (deferred) signal
    });
    waiter.start();
    setter.start();
    waiter.join();
    setter.join();
  }
  EXPECT_TRUE(sawUpdate.load());
}

TEST(Monitor, AbortedSectionNeverSignals) {
  runtime::GlobalRoot<Box> cond;
  run_sbd([&] {
    Box b = Box::alloc();
    b.init_v(0);
    cond.set(b);
  });
  std::atomic<int> wakeups{0};
  {
    SbdThread waiter([&] {
      Box b = cond.get();
      while (b.v() == 0) {
        wait_on(b.raw());
        wakeups++;
      }
    });
    SbdThread setter([&] {
      static bool aborted;
      aborted = false;
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      split();
      Box b = cond.get();
      b.set_v(1);
      notify_all(b.raw());
      if (!aborted) {
        aborted = true;
        // Abort: the notify must NOT be delivered, the write rolls back.
        core::abort_and_restart(core::tls_context());
      }
      // Retry delivers for real at the final commit.
    });
    waiter.start();
    setter.start();
    waiter.join();
    setter.join();
  }
  // The waiter saw exactly the committed update (1 wakeup; a spurious
  // replay would have been re-checked against v()==1 anyway).
  EXPECT_GE(wakeups.load(), 1);
  run_sbd([&] { EXPECT_EQ(cond.get().v(), 1); });
}

TEST(Monitor, NotifyOneWakesAtLeastOne) {
  runtime::GlobalRoot<Box> cond;
  run_sbd([&] {
    Box b = Box::alloc();
    b.init_v(0);
    cond.set(b);
  });
  std::atomic<int> done{0};
  {
    std::vector<SbdThread> waiters;
    for (int i = 0; i < 2; i++) {
      waiters.emplace_back([&] {
        Box b = cond.get();
        while (b.v() < 1) wait_on(b.raw());
        done++;
      });
    }
    for (auto& w : waiters) w.start();
    SbdThread setter([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(30));
      Box b = cond.get();
      b.set_v(2);  // both waiters' conditions become true
      notify_all(b.raw());
      split();
    });
    setter.start();
    for (auto& w : waiters) w.join();
    setter.join();
  }
  EXPECT_EQ(done.load(), 2);
}

// Every round's condition is a distinct object, so each round creates a
// wait set and its last waiter must free it: the table ends empty, and
// the leak checker of an SBD_SANITIZE=address build sees no set leak.
// Threads alternate roles: the waiter of round r signals round r + 1.
TEST(Monitor, WaitSetsAreFreedWhenTheirLastWaiterLeaves) {
  constexpr int kRounds = 10000;
  runtime::GlobalRoot<runtime::RefArray<Box>> boxes;
  run_sbd([&] {
    auto arr = runtime::RefArray<Box>::make(kRounds);
    for (uint64_t r = 0; r < kRounds; r++) {
      Box b = Box::alloc();
      b.init_v(0);
      arr.init_set(r, b);
    }
    boxes.set(arr);
  });
  std::atomic<int> waits{0};
  {
    std::vector<SbdThread> ts;
    for (int me = 0; me < 2; me++) {
      ts.emplace_back([&, me] {
        for (uint64_t r = 0; r < kRounds; r++) {
          Box b = boxes.get().get(r);
          if (static_cast<int>(r % 2) == me) {
            b.set_v(1);
            if (r % 4 < 2)
              notify_one(b.raw());
            else
              notify_all(b.raw());
          } else {
            while (b.v() == 0) {
              waits++;
              wait_on(b.raw());
            }
          }
          split();
        }
      });
    }
    for (auto& t : ts) t.start();
    for (auto& t : ts) t.join();
  }
  EXPECT_GT(waits.load(), 0);
  EXPECT_EQ(waited_objects(), 0u);
}

TEST(Barrier, AllThreadsMeet) {
  runtime::GlobalRoot<Barrier> bar;
  run_sbd([&] { bar.set(Barrier::make(4)); });
  std::atomic<int> beforeCount{0}, afterMax{0};
  {
    std::vector<SbdThread> ts;
    for (int i = 0; i < 4; i++) {
      ts.emplace_back([&] {
        // A plain atomic, so its section must end right here: a section
        // that also ran the start of sync() could be aborted and re-run
        // under versioned granularity, counting this thread twice.
        beforeCount++;
        split();
        allow_split([&] { bar.get().sync(); });
        // Everyone passed the barrier only after all 4 arrived.
        afterMax = std::max(afterMax.load(), beforeCount.load());
        EXPECT_EQ(beforeCount.load(), 4);
        split();
      });
    }
    for (auto& t : ts) t.start();
    for (auto& t : ts) t.join();
  }
  EXPECT_EQ(afterMax.load(), 4);
}

TEST(Barrier, FigureSixCountsMatch) {
  run_sbd([&] {
    Barrier b = Barrier::make(3);
    EXPECT_EQ(b.expected(), 3);
    EXPECT_EQ(b.arrived(), 0);
  });
}

TEST(TxLocal, IndependentPerThread) {
  static TxLocalI64 cell;
  std::atomic<int64_t> observed{0};
  {
    std::vector<SbdThread> ts;
    for (int t = 1; t <= 3; t++) {
      ts.emplace_back([&, t] {
        cell.set(t * 100);
        split();
        observed += cell.get();  // each thread sees its own value
      });
    }
    for (auto& t : ts) t.start();
    for (auto& t : ts) t.join();
  }
  EXPECT_EQ(observed.load(), 600);
}

TEST(TxLocal, UndoneOnAbort) {
  static TxLocalI64 cell;
  run_sbd([&] {
    static bool aborted;
    aborted = false;
    cell.set(10);
    split();
    cell.set(20);
    if (!aborted) {
      aborted = true;
      EXPECT_EQ(cell.get(), 20);
      core::abort_and_restart(core::tls_context());
    }
    // The retry runs cell.set(20) again; in between the abort must have
    // restored 10 (verified implicitly: the undo slot was valid).
    EXPECT_EQ(cell.get(), 20);
  });
}

TEST(TxLocal, AggregateSumsThreads) {
  static TxLocalI64 counter;
  std::atomic<int64_t> agg{-1};
  {
    std::vector<SbdThread> ts;
    for (int t = 0; t < 4; t++) {
      ts.emplace_back([&] {
        for (int i = 0; i < 25; i++) counter.add(1);
        split();
        // Keep the thread alive until all finished, so aggregate() sees
        // every thread's cell.
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        if (agg.load() == -1) agg = counter.aggregate();
      });
    }
    for (auto& t : ts) t.start();
    for (auto& t : ts) t.join();
  }
  EXPECT_EQ(agg.load(), 100);
}

TEST(TxLocalRefT, CachesPerThreadInstance) {
  static TxLocalRef<Box> cache;
  run_sbd([&] {
    Box a = cache.get_or_create([] {
      Box b = Box::alloc();
      b.init_v(11);
      return b;
    });
    Box b = cache.get_or_create([] { return Box::alloc(); });
    EXPECT_EQ(a.raw(), b.raw()) << "second call must reuse the cached instance";
    EXPECT_EQ(b.v(), 11);
  });
}

TEST(Split, NoSplitScopeSuppressesSplits) {
  run_sbd([&] {
    auto& tc = core::tls_context();
    const uint64_t commitsBefore = tc.stats.commits;
    {
      NoSplitScope noSplit;
      split();  // ignored (§3.7)
      split();
    }
    EXPECT_EQ(tc.stats.commits, commitsBefore);
    split();  // real
    EXPECT_EQ(tc.stats.commits, commitsBefore + 1);
  });
}

TEST(Split, CanSplitScopeAllowsNestedSplit) {
  run_sbd([&] {
    auto helper = [] {
      CanSplitScope scope;
      split();
    };
    allow_split(helper);
    SUCCEED();
  });
}

}  // namespace
}  // namespace sbd::threads
