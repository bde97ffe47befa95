// The invisible-reader (versioned) lock granularity. This binary runs
// with SBD_LOCK_GRANULARITY=versioned (ctest ENVIRONMENT — the mode is
// parsed once per process): every class starts on the versioned map, so
// reads go through the load + stamp-check + read-set protocol and
// writes lock exclusively via CAS on the stamp word.
#include <gtest/gtest.h>

#include <atomic>

#include "api/sbd.h"
#include "core/stats.h"
#include "core/transaction.h"
#include "runtime/object.h"

namespace sbd {
namespace {

using core::tls_context;
using core::TxnManager;
using runtime::LockMap;

class Cell : public runtime::TypedRef<Cell> {
 public:
  SBD_CLASS(VerCell, SBD_SLOT("value"), SBD_SLOT("pad"))
  SBD_FIELD_I64(0, value)

  static Cell make(int64_t v) {
    Cell c = alloc();
    c.init_value(v);
    return c;
  }
};

TEST(LockPlanVersioned, MapAlgebra) {
  const LockMap m = LockMap::versioned_map();
  EXPECT_EQ(m.kind, LockMap::kVersioned);
  EXPECT_TRUE(m.versioned());
  EXPECT_FALSE(LockMap::field_map().versioned());
  // Identity width/index: conflict detection stays per-field (one stamp
  // word per natural index), only the word's MEANING changes.
  EXPECT_EQ(m.width(6), 6u);
  EXPECT_EQ(m.index(4), 4u);
  EXPECT_STREQ(m.to_string(), "versioned");
  EXPECT_NE(m, LockMap::field_map());
}

TEST(LockPlanVersioned, ModeIsVersioned) {
  ASSERT_EQ(runtime::process_lock_map(), LockMap::versioned_map());
  EXPECT_EQ(Cell::klass()->lockMap, LockMap::versioned_map());
}

TEST(LockPlanVersioned, InvisibleReadsTakeNoLocks) {
  runtime::GlobalRoot<Cell> root;
  run_sbd([&] {
    root.set(Cell::make(7));
    split();  // escape: reads below hit the versioned fast path
    Cell c = root.get();
    auto& tc = tls_context();
    const auto before = tc.stats;
    for (int i = 0; i < 50; i++) EXPECT_EQ(c.value(), 7);
    const auto after = tc.stats;
    // No lock word was touched: the reads appended to the read set.
    EXPECT_EQ(after.acqRls - before.acqRls, 0u);
    EXPECT_EQ(after.versionedReads - before.versionedReads, 50u);
  });
}

TEST(LockPlanVersioned, CommitValidatesTheReadSet) {
  runtime::GlobalRoot<Cell> root;
  run_sbd([&] {
    root.set(Cell::make(1));
    split();
    Cell c = root.get();
    for (int i = 0; i < 10; i++) (void)c.value();
    auto& tc = tls_context();
    const auto before = tc.stats;
    split();  // commits the section: every read-set entry re-checked
    const auto after = tc.stats;
    EXPECT_GE(after.validations - before.validations, 10u);
  });
}

TEST(LockPlanVersioned, WritesAdvanceTheCommitClockReadsDoNot) {
  runtime::GlobalRoot<Cell> root;
  run_sbd([&] { root.set(Cell::make(0)); });
  const uint64_t c0 = core::version_clock();
  run_sbd([&] { root.get().set_value(9); });
  const uint64_t c1 = core::version_clock();
  EXPECT_GT(c1, c0) << "a committing versioned write must stamp a new version";
  run_sbd([&] { EXPECT_EQ(root.get().value(), 9); });
  const uint64_t c2 = core::version_clock();
  EXPECT_EQ(c2, c1) << "read-only sections must not advance the clock";
  run_sbd([&] { root.get().set_value(10); });
  EXPECT_GT(core::version_clock(), c1);
}

TEST(LockPlanVersioned, StaleReadAbortsAndRetries) {
  runtime::GlobalRoot<Cell> root;
  run_sbd([&] { root.set(Cell::make(1)); });
  std::atomic<int> phase{0};
  const auto before = TxnManager::instance().snapshot_stats();
  {
    SbdThread reader([&] {
      Cell c = root.get();
      const int64_t v1 = c.value();
      int expected = 0;
      if (phase.compare_exchange_strong(expected, 1)) {
        // First attempt: park until the writer has committed. The wait
        // holds NO locks (the read above was invisible).
        while (phase.load() != 2) {
        }
      }
      // First attempt: the stamp moved past our snapshot -> the read
      // aborts BEFORE returning a value (sandboxing); the retry sees the
      // new value for both reads.
      const int64_t v2 = c.value();
      EXPECT_EQ(v1, v2) << "a section must never observe a torn snapshot";
    });
    SbdThread writer([&] {
      while (phase.load() != 1) {
      }
      root.get().set_value(2);
      split();  // commit the write (stamps published by the release)
      phase.store(2);
    });
    reader.start();
    writer.start();
    reader.join();
    writer.join();
  }
  const auto after = TxnManager::instance().snapshot_stats();
  EXPECT_GE(after.versionAborts - before.versionAborts, 1u);
  run_sbd([&] { EXPECT_EQ(root.get().value(), 2); });
}

// The zombie fixture: writer keeps a+b == kTotal invariant across two
// objects; the reader asserts it INSIDE the section. Without per-read
// validation an invisible reader could pair a stale `a` with a fresh
// `b` and act on the broken invariant before commit-time validation
// catches it — the assert below is exactly that control-flow use.
TEST(LockPlanVersioned, SandboxPreservesSnapshotConsistency) {
  runtime::GlobalRoot<Cell> a, b;
  constexpr int64_t kTotal = 1000;
  run_sbd([&] {
    a.set(Cell::make(kTotal));
    b.set(Cell::make(0));
  });
  std::atomic<bool> stop{false};
  std::atomic<int> inconsistent{0};
  {
    SbdThread writer([&] {
      for (int i = 0; i < 2000; i++) {
        Cell x = a.get();
        Cell y = b.get();
        x.set_value(x.value() - 1);
        y.set_value(y.value() + 1);
        split();
      }
      stop = true;
    });
    SbdThread reader([&] {
      while (!stop.load()) {
        const int64_t av = a.get().value();
        const int64_t bv = b.get().value();
        if (av + bv != kTotal) inconsistent++;
        split();
      }
    });
    writer.start();
    reader.start();
    writer.join();
    reader.join();
  }
  EXPECT_EQ(inconsistent.load(), 0);
  const auto stats = TxnManager::instance().snapshot_stats();
  EXPECT_GT(stats.versionedReads, 0u);
}

class Gauged : public runtime::TypedRef<Gauged> {
 public:
  SBD_CLASS(VerGauged, SBD_SLOT("s0"), SBD_SLOT("s1"), SBD_SLOT("s2"))
  SBD_FIELD_I64(0, s0)
};

TEST(LockPlanVersioned, StampWordsHaveTheirOwnGauge) {
  auto& g = core::gauges();
  const uint64_t locksBefore = g.lockStructBytes.load();
  const uint64_t stampsBefore = g.versionWordBytes.load();
  runtime::GlobalRoot<Gauged> root;
  run_sbd([&] {
    Gauged x = Gauged::alloc();
    x.init_s0(1);
    root.set(x);
    split();               // escape
    (void)root.get().s0();  // materializes the stamp array
  });
  // Three slots -> three stamp words, counted in the versioned column
  // (Table 8 "Locks" stays byte-exact for the queue-bearing words).
  EXPECT_EQ(g.versionWordBytes.load() - stampsBefore,
            3 * sizeof(core::LockWord));
  EXPECT_EQ(g.lockStructBytes.load(), locksBefore);
}

// A class registered with its own map keeps it under a versioned
// process: reads lock (acquire/release), nothing joins the read set,
// and its words are lock words, not stamps.
class FieldCell : public runtime::TypedRef<FieldCell> {
 public:
  using TypedRef::TypedRef;
  static runtime::ClassInfo* klass() {
    static runtime::ClassInfo* ci = runtime::register_class(
        "VerFieldCell", {SBD_SLOT("a"), SBD_SLOT("b")}, {}, LockMap::field_map());
    return ci;
  }
  SBD_FIELD_I64(0, a)
  SBD_FIELD_I64(1, b)
};

TEST(LockPlanVersioned, RegisteredFieldMapStaysField) {
  EXPECT_EQ(FieldCell::klass()->lockMap, LockMap::field_map());
  runtime::GlobalRoot<FieldCell> root;
  run_sbd([&] {
    FieldCell c = FieldCell::alloc();
    c.init_a(4);
    c.init_b(5);
    root.set(c);
  });
  const core::GlobalGauges& g = core::gauges();
  const uint64_t locksBefore = g.lockStructBytes.load();
  const uint64_t stampsBefore = g.versionWordBytes.load();
  run_sbd([&] {
    FieldCell c = root.get();
    auto& tc = tls_context();
    const auto before = tc.stats;
    EXPECT_EQ(c.a() + c.b(), 9);
    const auto after = tc.stats;
    EXPECT_EQ(after.acqRls - before.acqRls, 2u);
    EXPECT_EQ(after.versionedReads - before.versionedReads, 0u);
  });
  EXPECT_EQ(g.lockStructBytes.load() - locksBefore, 2 * sizeof(core::LockWord));
  EXPECT_EQ(g.versionWordBytes.load(), stampsBefore);
  EXPECT_EQ(FieldCell::klass()->lockMap, LockMap::field_map());
}

}  // namespace
}  // namespace sbd
