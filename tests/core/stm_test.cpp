// Integration tests of the STM core: locking semantics, undo/abort,
// conflict serialization, deadlock resolution, splits.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "api/sbd.h"

namespace sbd {
namespace {

using core::tls_context;
using core::TxnManager;

class Cell : public runtime::TypedRef<Cell> {
 public:
  SBD_CLASS(Cell, SBD_SLOT("value"), SBD_SLOT_REF("next"), SBD_SLOT_FINAL("tag"))
  SBD_FIELD_I64(0, value)
  SBD_FIELD_REF(1, next, Cell)
  SBD_FIELD_FINAL_I64(2, tag)

  static Cell make(int64_t v, int64_t tag = 0) {
    Cell c = alloc();
    c.init_value(v);
    c.init_tag(tag);
    return c;
  }
};

// The Fig. 5 lock-counting and deadlock tests assert the lock-taking
// protocol, so their class keeps the field map in every process mode
// (a versioned read takes no lock; a versioned writer aborts on a held
// word instead of waiting).
class LockedCell : public runtime::TypedRef<LockedCell> {
 public:
  using TypedRef::TypedRef;
  static runtime::ClassInfo* klass() {
    static runtime::ClassInfo* ci = runtime::register_class(
        "LockedCell", {SBD_SLOT("value")}, {}, runtime::LockMap::field_map());
    return ci;
  }
  SBD_FIELD_I64(0, value)

  static LockedCell make(int64_t v) {
    LockedCell c = alloc();
    c.init_value(v);
    return c;
  }
};

TEST(Stm, ReadWriteWithinSection) {
  runtime::GlobalRoot<Cell> root;
  run_sbd([&] {
    Cell c = Cell::make(41);
    c.set_value(c.value() + 1);
    EXPECT_EQ(c.value(), 42);
    root.set(c);
  });
  // After the section committed, the value persists.
  run_sbd([&] { EXPECT_EQ(root.get().value(), 42); });
}

TEST(Stm, NewInstanceAccessesNeedNoLock) {
  run_sbd([&] {
    auto& tc = tls_context();
    const auto before = tc.stats;
    Cell c = Cell::make(0);
    for (int i = 0; i < 100; i++) c.set_value(i);
    const auto after = tc.stats;
    EXPECT_EQ(after.acqRls - before.acqRls, 0u) << "new instances must not lock";
    EXPECT_GE(after.checkNew - before.checkNew, 100u);
  });
}

TEST(Stm, EscapedInstanceLocksOnFirstAccess) {
  runtime::GlobalRoot<LockedCell> root;
  run_sbd([&] {
    root.set(LockedCell::make(7));
    split();  // instance escapes: locks flip to UNALLOC
    auto& tc = tls_context();
    const auto before = tc.stats;
    LockedCell c = root.get();
    EXPECT_EQ(c.value(), 7);
    const auto after = tc.stats;
    EXPECT_EQ(after.lockInit - before.lockInit, 1u);
    EXPECT_EQ(after.acqRls - before.acqRls, 1u);
  });
}

TEST(Stm, RepeatAccessIsOwnedCheckOnly) {
  runtime::GlobalRoot<LockedCell> root;
  run_sbd([&] {
    root.set(LockedCell::make(1));
    split();
    LockedCell c = root.get();
    (void)c.value();  // acquires the read lock
    auto& tc = tls_context();
    const auto before = tc.stats;
    for (int i = 0; i < 50; i++) (void)c.value();
    const auto after = tc.stats;
    EXPECT_EQ(after.acqRls - before.acqRls, 0u);
    EXPECT_EQ(after.checkOwned - before.checkOwned, 50u);
  });
}

TEST(Stm, FinalFieldsNeverSynchronize) {
  runtime::GlobalRoot<Cell> root;
  run_sbd([&] {
    root.set(Cell::make(1, /*tag=*/99));
    split();
    Cell c = root.get();
    auto& tc = tls_context();
    const auto before = tc.stats;
    for (int i = 0; i < 10; i++) EXPECT_EQ(c.tag(), 99);
    const auto after = tc.stats;
    EXPECT_EQ(after.acqRls - before.acqRls, 0u);
    EXPECT_EQ(after.checkOwned - before.checkOwned, 0u);
    EXPECT_EQ(after.checkNew - before.checkNew, 0u);
  });
}

TEST(Stm, AbortRollsBackHeapWrites) {
  runtime::GlobalRoot<Cell> root;
  run_sbd([&] {
    static bool aborted;
    aborted = false;  // reset BEFORE the checkpoint: retries re-run code after split()
    root.set(Cell::make(10));
    split();  // value 10 is committed
    Cell c = root.get();
    c.set_value(999);
    if (!aborted) {
      aborted = true;
      core::abort_and_restart(tls_context());  // roll back and re-execute
    }
    // On the retry, the write of 999 happened again — but the abort
    // must have restored 10 in between; verify via a fresh read after
    // rolling the retry forward.
    EXPECT_EQ(c.value(), 999);
    split();
  });
  run_sbd([&] { EXPECT_EQ(root.get().value(), 999); });
}

TEST(Stm, AbortDiscardsNewObjects) {
  runtime::GlobalRoot<Cell> root;
  run_sbd([&] {
    static bool aborted;
    aborted = false;  // before the checkpoint: not re-run on retry
    root.set(Cell::make(1));
    split();
    static uint64_t abortsBefore;
    auto& tc = tls_context();
    if (!aborted) abortsBefore = tc.stats.aborts;
    Cell fresh = Cell::make(123);   // init-logged
    root.get().set_next(fresh);     // link it
    if (!aborted) {
      aborted = true;
      core::abort_and_restart(tc);
    }
    EXPECT_EQ(tc.stats.aborts, abortsBefore + 1);
  });
  run_sbd([&] {
    // The retry re-created and re-linked a new object; it must be valid.
    EXPECT_EQ(root.get().next().value(), 123);
  });
}

TEST(Stm, AbortRestoresStackLocals) {
  run_sbd([&] {
    static bool aborted;
    aborted = false;
    int64_t local = 5;
    split();  // checkpoint captures local == 5
    local += 100;
    if (!aborted) {
      aborted = true;
      core::abort_and_restart(tls_context());
    }
    // Retry: local was restored to 5 and re-incremented once.
    EXPECT_EQ(local, 105);
  });
}

TEST(Stm, SplitMakesEffectsVisibleAndReleasesLocks) {
  runtime::GlobalRoot<Cell> root;
  run_sbd([&] {
    root.set(Cell::make(0));
    split();
    Cell c = root.get();
    c.set_value(5);
    auto& tc = tls_context();
    EXPECT_GT(tc.txn.num_locks(), 0u);
    split();
    EXPECT_EQ(tc.txn.num_locks(), 0u) << "split must release all locks";
  });
}

TEST(Stm, ConcurrentIncrementsAreSerialized) {
  runtime::GlobalRoot<Cell> root;
  run_sbd([&] { root.set(Cell::make(0)); });
  constexpr int kThreads = 4, kIncs = 500;
  {
    std::vector<SbdThread> ts;
    for (int t = 0; t < kThreads; t++) {
      ts.emplace_back([&] {
        for (int i = 0; i < kIncs; i++) {
          Cell c = root.get();
          c.set_value(c.value() + 1);
          split();  // release the lock so other threads can increment
        }
      });
    }
    for (auto& t : ts) t.start();
    for (auto& t : ts) t.join();
  }
  run_sbd([&] { EXPECT_EQ(root.get().value(), kThreads * kIncs); });
}

TEST(Stm, WithoutSplitsStillNoLostUpdates) {
  // Missing splits serialize but never corrupt (§2.1 "incremental").
  runtime::GlobalRoot<Cell> root;
  run_sbd([&] { root.set(Cell::make(0)); });
  {
    std::vector<SbdThread> ts;
    for (int t = 0; t < 3; t++) {
      ts.emplace_back([&] {
        for (int i = 0; i < 100; i++) {
          Cell c = root.get();
          c.set_value(c.value() + 1);
        }
        // No split: the whole body is one atomic section.
      });
    }
    for (auto& t : ts) t.start();
    for (auto& t : ts) t.join();
  }
  run_sbd([&] { EXPECT_EQ(root.get().value(), 300); });
}

TEST(Stm, OpacityReadersSeeConsistentPairs) {
  runtime::GlobalRoot<Cell> a, b;
  run_sbd([&] {
    a.set(Cell::make(0));
    b.set(Cell::make(0));
  });
  std::atomic<bool> stop{false};
  std::atomic<int> inconsistent{0};
  {
    SbdThread writer([&] {
      for (int i = 1; i <= 300; i++) {
        a.get().set_value(i);
        b.get().set_value(i);
        split();
      }
      stop = true;
    });
    SbdThread reader([&] {
      while (!stop.load()) {
        const int64_t x = a.get().value();
        const int64_t y = b.get().value();
        if (x != y) inconsistent++;
        split();
      }
    });
    writer.start();
    reader.start();
    writer.join();
    reader.join();
  }
  EXPECT_EQ(inconsistent.load(), 0);
}

TEST(Stm, DeadlockIsResolvedByAbortingYoungest) {
  runtime::GlobalRoot<LockedCell> a, b;
  run_sbd([&] {
    a.set(LockedCell::make(0));
    b.set(LockedCell::make(0));
  });
  std::atomic<int> phase{0};
  const auto statsBefore = TxnManager::instance().snapshot_stats();
  {
    SbdThread t1([&] {
      a.get().set_value(1);
      phase.fetch_add(1);
      while (phase.load() < 2) {
      }  // both hold their first lock
      b.get().set_value(1);  // blocks on t2 -> cycle
    });
    SbdThread t2([&] {
      b.get().set_value(2);
      phase.fetch_add(1);
      while (phase.load() < 2) {
      }
      a.get().set_value(2);  // blocks on t1 -> deadlock
    });
    t1.start();
    t2.start();
    t1.join();
    t2.join();
  }
  const auto statsAfter = TxnManager::instance().snapshot_stats();
  EXPECT_GE(statsAfter.aborts - statsBefore.aborts, 1u);
  EXPECT_GE(statsAfter.deadlocksResolved - statsBefore.deadlocksResolved, 1u);
  // Both threads eventually committed; whoever retried last wins.
  run_sbd([&] {
    const int64_t av = a.get().value();
    const int64_t bv = b.get().value();
    EXPECT_TRUE((av == 1 && bv == 1) || (av == 2 && bv == 2) ||
                (av == 2 && bv == 1) || (av == 1 && bv == 2));
  });
}

TEST(Stm, ArrayElementGranularity) {
  // Two threads writing disjoint elements of one array never conflict.
  // The array's class is field-mapped, so the premise holds whatever
  // SBD_LOCK_GRANULARITY the process runs under.
  static runtime::ClassInfo* const fieldMapped = runtime::register_array_class(
      "long[]/field", runtime::ElemKind::kI64, runtime::LockMap::field_map());
  runtime::GlobalRoot<I64Array> arr;
  run_sbd([&] { arr.set(I64Array(runtime::Heap::instance().alloc_array(fieldMapped, 64))); });
  const auto before = TxnManager::instance().snapshot_stats();
  {
    SbdThread t1([&] {
      for (int r = 0; r < 200; r++) {
        for (int i = 0; i < 32; i++) arr.get().set(i, r);
        split();
      }
    });
    SbdThread t2([&] {
      for (int r = 0; r < 200; r++) {
        for (int i = 32; i < 64; i++) arr.get().set(i, r);
        split();
      }
    });
    t1.start();
    t2.start();
    t1.join();
    t2.join();
  }
  const auto after = TxnManager::instance().snapshot_stats();
  EXPECT_EQ(after.aborts - before.aborts, 0u)
      << "element-granularity locking must not conflict on disjoint elements";
  run_sbd([&] {
    for (int i = 0; i < 64; i++) EXPECT_EQ(arr.get().get(i), 199);
  });
}

TEST(Stm, UpgradeReadToWrite) {
  runtime::GlobalRoot<Cell> root;
  run_sbd([&] {
    root.set(Cell::make(5));
    split();
    Cell c = root.get();
    const int64_t v = c.value();  // read lock
    c.set_value(v * 2);           // sole-reader upgrade
    EXPECT_EQ(c.value(), 10);
  });
  run_sbd([&] { EXPECT_EQ(root.get().value(), 10); });
}

TEST(Stm, ByteArrayUndoCoversWholeWords) {
  runtime::GlobalRoot<ByteArray> root;
  run_sbd([&] {
    static bool aborted;
    aborted = false;  // before the checkpoint: not re-run on retry
    ByteArray a = ByteArray::make(32);
    for (int i = 0; i < 32; i++) a.init_set(i, static_cast<int8_t>(i));
    root.set(a);
    split();
    ByteArray b = root.get();
    // Write several bytes within the same 8-byte lock granule.
    b.set(0, 100);
    b.set(1, 101);
    b.set(7, 107);
    if (!aborted) {
      aborted = true;
      core::abort_and_restart(tls_context());
    }
    split();
  });
  run_sbd([&] {
    // The retry re-applied the writes; the in-between rollback must have
    // restored the whole granule, so untouched bytes are intact.
    ByteArray b = root.get();
    EXPECT_EQ(b.get(0), 100);
    EXPECT_EQ(b.get(1), 101);
    EXPECT_EQ(b.get(2), 2);
    EXPECT_EQ(b.get(7), 107);
    EXPECT_EQ(b.get(8), 8);
  });
}

TEST(Stm, TxnIdReleasedOnJoin) {
  // Join releases the parent's transaction id while waiting (§3.5).
  run_sbd([&] {
    const int before = TxnManager::instance().id_pool().available();
    SbdThread child([&] {
      // While the child runs, the parent has released its id; child has
      // one. So availability is the same as before from the child's view
      // modulo its own id — just check we got a valid section.
      EXPECT_TRUE(core::tls_context().txn.active());
    });
    child.start();
    child.join();
    const int after = TxnManager::instance().id_pool().available();
    EXPECT_EQ(before, after);
  });
}

TEST(Stm, DeferredThreadStartHappensAtCommit) {
  std::atomic<bool> childRan{false};
  run_sbd([&] {
    SbdThread child([&] { childRan = true; });
    child.start();
    // Still inside the starting section: the child must not run yet.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_FALSE(childRan.load());
    child.join();  // splits -> deferred start fires -> waits
    EXPECT_TRUE(childRan.load());
  });
}

}  // namespace
}  // namespace sbd
