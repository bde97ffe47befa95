// End-to-end tests of the six DaCapo analogs: both variants run the
// same deterministic workload and must produce identical checksums
// (single-threaded, where no scheduling nondeterminism exists), and the
// SBD variants must exercise the STM (nonzero lock-operation counts).
#include "dacapo/harness.h"

#include <gtest/gtest.h>

#include "runtime/class_info.h"
#include "threads/monitor.h"

namespace sbd::dacapo {
namespace {

Scale tiny() { return Scale{0.15}; }

// Reads that re-hit a held lock (owned checks) under the lock-taking
// maps; under versioned every read is invisible and holds nothing, so
// the same reads count as versioned reads.
uint64_t repeat_reads(const RunResult& r) {
  return runtime::process_lock_map().versioned() ? r.stm.versionedReads
                                                 : r.stm.checkOwned;
}

class DacapoVariants : public ::testing::TestWithParam<int> {};

TEST(Dacapo, RegistryHasSixBenchmarks) {
  auto all = all_benchmarks();
  ASSERT_EQ(all.size(), 6u);
  EXPECT_EQ(all[0].name, "LuIndex");
  EXPECT_EQ(all[1].name, "LuSearch");
  EXPECT_EQ(all[2].name, "PMD");
  EXPECT_EQ(all[3].name, "Sunflow");
  EXPECT_EQ(all[4].name, "H2");
  EXPECT_EQ(all[5].name, "Tomcat");
  EXPECT_TRUE(all[0].fixedThreads);
}

TEST(Dacapo, LuIndexChecksumsMatch) {
  auto b = luindex_benchmark();
  const auto base = b.baseline(tiny(), 1);
  const auto sbdr = b.sbd(tiny(), 1);
  EXPECT_EQ(base.checksum, sbdr.checksum);
  EXPECT_GT(sbdr.stm.acqRls + sbdr.stm.checkNew + sbdr.stm.checkOwned, 0u);
}

// The LuIndex worker blocks on the empty queue (wait_on) instead of
// splitting on every empty take, so its sections are the producer's
// puts, the worker's takes and documents, at most one wait per put and
// a few fixed ones: a count bounded by the documents, not by scheduling.
TEST(Dacapo, LuIndexCommitsAreBoundedByItsDocuments) {
  auto b = luindex_benchmark();
  const uint64_t docs = tiny().of(400);  // luindex.cpp's corpus size
  for (int rep = 0; rep < 20; rep++) {
    const auto r = b.sbd(tiny(), 1);
    ASSERT_LE(r.stm.commits, 4 * docs + 4) << "repetition " << rep;
  }
}

// Under versioned the worker's wait_on split can fail validation (the
// producer's put re-stamped the empty flag the worker read); the aborted
// wait must leave the wait set it joined, or the set outlives the run.
TEST(Dacapo, LuIndexLeavesNoWaitSetBehind) {
  auto b = luindex_benchmark();
  for (int rep = 0; rep < 20; rep++) {
    (void)b.sbd(Scale{1.0}, 1);
    ASSERT_EQ(threads::waited_objects(), 0u) << "repetition " << rep;
  }
}

TEST(Dacapo, LuSearchChecksumsMatch) {
  auto b = lusearch_benchmark();
  const auto base = b.baseline(tiny(), 2);
  const auto sbdr = b.sbd(tiny(), 2);
  EXPECT_EQ(base.checksum, sbdr.checksum);
  EXPECT_GT(repeat_reads(sbdr), 0u);
}

TEST(Dacapo, PmdChecksumsMatch) {
  auto b = pmd_benchmark();
  const auto base = b.baseline(tiny(), 2);
  const auto sbdr = b.sbd(tiny(), 2);
  EXPECT_EQ(base.checksum, sbdr.checksum);
  EXPECT_GT(sbdr.stm.commits, 0u);
}

TEST(Dacapo, SunflowChecksumsMatch) {
  auto b = sunflow_benchmark();
  const auto base = b.baseline(tiny(), 2);
  const auto sbdr = b.sbd(tiny(), 2);
  EXPECT_EQ(base.checksum, sbdr.checksum);
  EXPECT_GT(sbdr.stm.lockInit, 0u);
  // Each tile section reads the scene through array read views (the
  // hand-hoisted form of the per-ray checks), so under the field map the
  // per-ray owned checks are gone, while under versioned every scene
  // read still goes through the invisible-read path. (Under the object
  // map the framebuffer's single word turns pixel writes into owned
  // checks, so the counts say nothing about the scene reads there.)
  const runtime::LockMap map = runtime::process_lock_map();
  if (map.versioned()) {
    EXPECT_GT(sbdr.stm.versionedReads, sbdr.stm.acqRls);
  }
  if (map.identity()) {
    EXPECT_LT(sbdr.stm.checkOwned, sbdr.stm.acqRls);
  }
}

TEST(Dacapo, H2ChecksumsMatchSingleThreaded) {
  auto b = h2_benchmark();
  const auto base = b.baseline(tiny(), 1);
  const auto sbdr = b.sbd(tiny(), 1);
  EXPECT_EQ(base.checksum, sbdr.checksum);
}

// A business transaction retried after a DB deadlock must replay the
// same inputs in both variants, so the totals agree under contention.
TEST(Dacapo, H2ChecksumsMatchMultiThreaded) {
  auto b = h2_benchmark();
  for (int rep = 0; rep < 20; rep++) {
    const auto base = b.baseline(Scale{1.0}, 2);
    const auto sbdr = b.sbd(Scale{1.0}, 2);
    ASSERT_EQ(base.checksum, sbdr.checksum) << "repetition " << rep;
  }
}

TEST(Dacapo, H2MultiThreadedCompletes) {
  auto b = h2_benchmark();
  const auto sbdr = b.sbd(tiny(), 4);
  EXPECT_GT(sbdr.checksum, 0u);
  EXPECT_GT(sbdr.stm.commits, 0u);
}

TEST(Dacapo, TomcatChecksumsMatch) {
  auto b = tomcat_benchmark();
  const auto base = b.baseline(tiny(), 2);
  const auto sbdr = b.sbd(tiny(), 2);
  EXPECT_EQ(base.checksum, sbdr.checksum);
}

TEST_P(DacapoVariants, SbdVariantsScaleWithoutCorruption) {
  const int threads = GetParam();
  // LuSearch is a read-heavy workload whose checksum is thread-count
  // independent: per-thread query streams are seeded by thread id.
  auto b = lusearch_benchmark();
  const auto base = b.baseline(tiny(), threads);
  const auto sbdr = b.sbd(tiny(), threads);
  EXPECT_EQ(base.checksum, sbdr.checksum);
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, DacapoVariants, ::testing::Values(1, 2, 4));

TEST(Dacapo, EffortReportsPopulated) {
  for (const auto& b : all_benchmarks()) {
    EXPECT_GT(b.effort.splits, 0) << b.name;
    EXPECT_GT(b.effort.paperFinal, 0) << b.name;
  }
}

}  // namespace
}  // namespace sbd::dacapo
