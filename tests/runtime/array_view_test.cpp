// Section-scoped array read views (runtime/field_access.h): creating a
// view takes exactly the read locks per-element reads of its range would
// take, reads through it equal per-element reads, and it stays correct
// across conflicts, abort replay and GC under every lock map.
//
// Each case runs once per map — field, object, versioned — on an array
// class registered with that map, so it holds whatever
// SBD_LOCK_GRANULARITY the process runs under.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "api/sbd.h"
#include "core/fault.h"

namespace sbd {
namespace {

using runtime::LockMap;

constexpr uint64_t kLen = 16;

runtime::ClassInfo* f64_class(LockMap::Kind kind) {
  static runtime::ClassInfo* const classes[] = {
      runtime::register_array_class("double[]/view-field", runtime::ElemKind::kF64,
                                    LockMap::field_map()),
      runtime::register_array_class("double[]/view-object", runtime::ElemKind::kF64,
                                    LockMap::object_map()),
      runtime::register_array_class("double[]/view-versioned", runtime::ElemKind::kF64,
                                    LockMap::versioned_map()),
  };
  return classes[kind];
}

runtime::ClassInfo* i64_class(LockMap::Kind kind) {
  static runtime::ClassInfo* const classes[] = {
      runtime::register_array_class("long[]/view-field", runtime::ElemKind::kI64,
                                    LockMap::field_map()),
      runtime::register_array_class("long[]/view-object", runtime::ElemKind::kI64,
                                    LockMap::object_map()),
      runtime::register_array_class("long[]/view-versioned", runtime::ElemKind::kI64,
                                    LockMap::versioned_map()),
  };
  return classes[kind];
}

double elem(uint64_t i) { return 1.5 * static_cast<double>(i) + 0.25; }

// A published array of kLen elements, element i = elem(i).
void make_published(runtime::GlobalRoot<F64Array>& root, LockMap::Kind kind) {
  run_sbd([&] {
    F64Array a(runtime::Heap::instance().alloc_array(f64_class(kind), kLen));
    for (uint64_t i = 0; i < kLen; i++) a.set(i, elem(i));
    root.set(a);
  });
}

class ArrayView : public ::testing::TestWithParam<LockMap::Kind> {};

TEST_P(ArrayView, ReadsEqualPerElementReadsAndTakeTheSameLocks) {
  const LockMap::Kind kind = GetParam();
  runtime::GlobalRoot<F64Array> root;
  make_published(root, kind);
  run_sbd([&] {
    auto& tc = context();
    split(tc);  // a fresh section: nothing held yet
    const core::StatsCounters before = tc.stats;
    const auto v = root.get().read_view(tc, 2, 9);
    const uint64_t viewAcq = tc.stats.acqRls - before.acqRls;
    switch (kind) {
      case LockMap::kField:
        EXPECT_EQ(viewAcq, 7u);  // one word per element of [2, 9)
        break;
      case LockMap::kObject:
        EXPECT_EQ(viewAcq, 1u);  // the instance's single word
        break;
      case LockMap::kVersioned:
        EXPECT_EQ(viewAcq, 0u);  // invisible reads lock nothing
        break;
    }
    EXPECT_EQ(tc.stats.checkOwned, before.checkOwned);
    // Per-element reads of the viewed range find every word owned.
    const core::StatsCounters mid = tc.stats;
    for (uint64_t i = 2; i < 9; i++) {
      EXPECT_EQ(v[i], elem(i));
      EXPECT_EQ(root.get().get(tc, i), v[i]);
    }
    EXPECT_EQ(tc.stats.acqRls, mid.acqRls);
    if (kind == LockMap::kVersioned) {
      EXPECT_GE(tc.stats.versionedReads - mid.versionedReads, 14u);  // view + get
    } else {
      EXPECT_EQ(tc.stats.checkOwned - mid.checkOwned, 7u);
    }
    // A second view of held words pays owned checks, not acquires.
    const core::StatsCounters again = tc.stats;
    const auto w = root.get().read_view(tc, 2, 9);
    EXPECT_EQ(tc.stats.acqRls, again.acqRls);
    if (kind != LockMap::kVersioned) {
      EXPECT_EQ(tc.stats.checkOwned - again.checkOwned, viewAcq);
    }
    EXPECT_EQ(w[8], elem(8));
  });
}

TEST_P(ArrayView, I64ViewsReadTheSameValues) {
  const LockMap::Kind kind = GetParam();
  runtime::GlobalRoot<I64Array> root;
  run_sbd([&] {
    I64Array a(runtime::Heap::instance().alloc_array(i64_class(kind), kLen));
    for (uint64_t i = 0; i < kLen; i++) a.set(i, -7 * static_cast<int64_t>(i));
    root.set(a);
    split();
    auto& tc = context();
    const auto v = root.get().read_view(tc, 0, kLen);
    for (uint64_t i = 0; i < kLen; i++) EXPECT_EQ(v[i], root.get().get(tc, i));
  });
}

// The observable outcome of a writer that targets element 3 while a
// reader section holds it (through a view or a per-element read).
struct ConflictOutcome {
  bool writerFinishedWhileReaderHeld;
  bool readerAborted;
  double readerFirst;
  double readerSecond;
};

ConflictOutcome run_conflict(runtime::GlobalRoot<F64Array>& root, bool viaView) {
  std::atomic<bool> readHeld{false};
  std::atomic<bool> writerDone{false};
  ConflictOutcome out{};
  std::thread reader([&] {
    run_sbd([&] {
      auto& tc = context();
      const uint64_t abortsAtStart = tc.stats.aborts;
      split(tc);
      double first;
      if (viaView) {
        const auto v = root.get().read_view(tc, 0, kLen);
        first = v[3];
      } else {
        first = root.get().get(tc, 3);
      }
      readHeld.store(true);
      // Hold the section open while the writer tries. It can finish only
      // if our read locked nothing (versioned maps): wait for it there,
      // and give it 150 ms to show it is blocked otherwise.
      const auto hold = root.get().raw()->h.cls->lockMap.versioned()
                            ? std::chrono::milliseconds(10'000)
                            : std::chrono::milliseconds(150);
      const auto until = std::chrono::steady_clock::now() + hold;
      while (!writerDone.load() && std::chrono::steady_clock::now() < until)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      const bool finished = writerDone.load();
      // Re-read element 3 the same way. A versioned section sees the
      // writer's newer stamp and replays from the split (the view is
      // re-created there); a locking one still holds the old value.
      const double second =
          viaView ? root.get().read_view(tc, 0, kLen)[3] : root.get().get(tc, 3);
      out = {finished, tc.stats.aborts > abortsAtStart, first, second};
    });
  });
  while (!readHeld.load()) std::this_thread::yield();
  std::thread writer([&] {
    run_sbd([&] { root.get().set(3, 99.0); });
    writerDone.store(true);
  });
  reader.join();
  writer.join();
  return out;
}

TEST_P(ArrayView, WriterConflictsExactlyAsWithPerElementReads) {
  const LockMap::Kind kind = GetParam();
  runtime::GlobalRoot<F64Array> viewed;
  runtime::GlobalRoot<F64Array> plain;
  make_published(viewed, kind);
  make_published(plain, kind);
  const ConflictOutcome v = run_conflict(viewed, /*viaView=*/true);
  const ConflictOutcome p = run_conflict(plain, /*viaView=*/false);
  EXPECT_EQ(v.writerFinishedWhileReaderHeld, p.writerFinishedWhileReaderHeld);
  EXPECT_EQ(v.readerAborted, p.readerAborted);
  EXPECT_EQ(v.readerSecond, p.readerSecond);
  if (kind == LockMap::kVersioned) {
    // Invisible reads: the writer is never blocked, the reader replays.
    EXPECT_TRUE(v.writerFinishedWhileReaderHeld);
    EXPECT_TRUE(v.readerAborted);
    EXPECT_EQ(v.readerSecond, 99.0);
  } else {
    // Visible read locks: the writer waits for the reader's commit.
    EXPECT_FALSE(v.writerFinishedWhileReaderHeld);
    EXPECT_FALSE(v.readerAborted);
    EXPECT_EQ(v.readerFirst, elem(3));
    EXPECT_EQ(v.readerSecond, elem(3));
  }
  run_sbd([&] {
    EXPECT_EQ(viewed.get().get(3), 99.0);
    EXPECT_EQ(plain.get().get(3), 99.0);
  });
}

TEST_P(ArrayView, InjectedAbortReplaysTheSectionAndRecreatesTheView) {
  const LockMap::Kind kind = GetParam();
  runtime::GlobalRoot<F64Array> root;
  runtime::GlobalRoot<F64Array> sums;
  make_published(root, kind);
  run_sbd([&] { sums.set(F64Array::make(1)); });
  double expected = 0;
  for (uint64_t i = 0; i < kLen; i++) expected += elem(i);
  constexpr int kRounds = 40;
  const uint64_t abortsBefore = core::TxnManager::instance().snapshot_stats().aborts;
  {
    fault::PlanScope plan(fault::single_site(fault::Site::kSplitAbort, 0.5, 25));
    run_sbd([&] {
      auto& tc = context();
      for (int r = 0; r < kRounds; r++) {
        split(tc);  // an injected abort at the next split replays from here
        const auto v = root.get().read_view(tc, 0, kLen);
        double s = 0;
        for (uint64_t i = 0; i < kLen; i++) s += v[i];
        sums.get().set(tc, 0, sums.get().get(tc, 0) + s);
      }
    });
  }
  EXPECT_GT(core::TxnManager::instance().snapshot_stats().aborts, abortsBefore);
  run_sbd([&] { EXPECT_EQ(sums.get().get(0), kRounds * expected); });
}

TEST_P(ArrayView, GcDuringALiveViewKeepsTheArray) {
  const LockMap::Kind kind = GetParam();
  runtime::GlobalRoot<F64Array> root;
  make_published(root, kind);
  run_sbd([&] {
    auto& tc = context();
    split(tc);
    const auto v = root.get().read_view(tc, 0, kLen);
    root.set(F64Array());  // the view is now the array's only holder
    runtime::Heap::instance().collect();
    runtime::Heap::instance().collect();
    // Reuse any freed memory of the same size with different values.
    for (int k = 0; k < 64; k++) {
      F64Array junk(runtime::Heap::instance().alloc_array(f64_class(kind), kLen));
      for (uint64_t i = 0; i < kLen; i++) junk.set(tc, i, -1.0);
    }
    for (uint64_t i = 0; i < kLen; i++) EXPECT_EQ(v[i], elem(i));
  });
}

INSTANTIATE_TEST_SUITE_P(Maps, ArrayView,
                         ::testing::Values(LockMap::kField, LockMap::kObject,
                                           LockMap::kVersioned),
                         [](const ::testing::TestParamInfo<LockMap::Kind>& info) {
                           return std::string(LockMap{info.param}.to_string());
                         });

TEST(ArrayViewDeathTest, UseAfterSplitTripsTheEpochCheck) {
#ifdef NDEBUG
  GTEST_SKIP() << "the section-epoch check is an SBD_DCHECK (Debug builds only)";
#else
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  runtime::GlobalRoot<F64Array> root;
  make_published(root, LockMap::kField);
  EXPECT_DEATH(run_sbd([&] {
                 auto& tc = context();
                 const auto v = root.get().read_view(tc, 0, kLen);
                 split(tc);
                 (void)v[0];
               }),
               "sectionEpoch");
#endif
}

}  // namespace
}  // namespace sbd
