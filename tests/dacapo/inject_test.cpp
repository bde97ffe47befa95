// Failure injection over the full benchmark stack: with a 40% chance of
// a forced abort at every split, every benchmark must still produce the
// exact same checksum — heap undo, stack restore, I/O replay, deferred
// actions, and DB rollback all have to hold up under retry storms.
// (The rate is high because the smallest benchmarks reach fewer than
// ten splits at this scale; the injector must fire in every run.)
#include <gtest/gtest.h>

#include "core/fault.h"
#include "dacapo/harness.h"

namespace sbd::dacapo {
namespace {

struct Case {
  const char* name;
  Benchmark (*make)();
  int threads;
};

void PrintTo(const Case& c, std::ostream* os) { *os << c.name << "/" << c.threads; }

class InjectSweep : public ::testing::TestWithParam<Case> {};

TEST_P(InjectSweep, ChecksumsSurviveForcedAborts) {
  const auto c = GetParam();
  Benchmark b = c.make();
  const Scale tiny{0.1};
  const uint64_t clean = b.sbd(tiny, c.threads).checksum;
  uint64_t injected;
  uint64_t abortsFired;
  {
    fault::PlanScope inject(fault::single_site(fault::Site::kSplitAbort, 0.40,
                                               /*seed=*/1234));
    injected = b.sbd(tiny, c.threads).checksum;
    abortsFired = fault::fired(fault::Site::kSplitAbort);
  }
  EXPECT_EQ(clean, injected) << "retries must be invisible to the result";
  EXPECT_GT(abortsFired, 0u) << "the injector should actually have fired";
}

INSTANTIATE_TEST_SUITE_P(
    Benchmarks, InjectSweep,
    ::testing::Values(Case{"LuIndex", &luindex_benchmark, 1},
                      Case{"LuSearch", &lusearch_benchmark, 2},
                      Case{"PMD", &pmd_benchmark, 2},
                      Case{"Sunflow", &sunflow_benchmark, 2},
                      Case{"H2", &h2_benchmark, 1},
                      Case{"Tomcat", &tomcat_benchmark, 2}));

TEST(Inject, RateZeroNeverFires) {
  fault::clear_plan();
  for (int i = 0; i < 1000; i++) EXPECT_FALSE(fault::should_fire(fault::Site::kSplitAbort));
}

TEST(Inject, DeterministicSequence) {
  const fault::FaultPlan plan = fault::single_site(fault::Site::kSplitAbort, 0.5, 7);
  fault::set_plan(plan);
  std::vector<bool> a;
  for (int i = 0; i < 64; i++) a.push_back(fault::should_fire(fault::Site::kSplitAbort));
  fault::set_plan(plan);
  for (int i = 0; i < 64; i++)
    EXPECT_EQ(fault::should_fire(fault::Site::kSplitAbort), a[static_cast<size_t>(i)]);
  fault::clear_plan();
}

}  // namespace
}  // namespace sbd::dacapo
