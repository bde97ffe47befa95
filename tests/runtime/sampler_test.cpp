#include "runtime/sampler.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "api/sbd.h"
#include "common/timing.h"
#include "core/stats.h"

namespace sbd::runtime {
namespace {

class Blob : public TypedRef<Blob> {
 public:
  SBD_CLASS(SamplerBlob, SBD_SLOT("v"))
  SBD_FIELD_I64(0, v)
};

TEST(MemorySampler, CollectsAndAverages) {
  MemorySampler sampler(5);
  sampler.start();
  EXPECT_TRUE(sampler.running());
  GlobalRoot<I64Array> keep;
  run_sbd([&] {
    keep.set(I64Array::make(50000));  // ~400 KB live
    for (int i = 0; i < 2000; i++) {
      Blob b = Blob::alloc();
      b.init_v(i);
      if (i % 64 == 0) split();
    }
  });
  // Give the sampler cooperative windows: a non-SBD thread sleeping
  // never reaches a safepoint, so tick inside sections instead.
  for (int i = 0; i < 8; i++) {
    run_sbd([&] { split(); });
    std::this_thread::sleep_for(std::chrono::milliseconds(6));
  }
  const auto avg = sampler.stop();
  EXPECT_FALSE(sampler.running());
  EXPECT_GE(avg.samples, 1u);
  EXPECT_EQ(avg.collections, avg.samples);
  // The kept array dominates the live average.
  EXPECT_GT(avg.liveHeapBytes, 300000.0);
}

TEST(MemorySampler, StopWithoutStartIsHarmless) {
  MemorySampler sampler;
  const auto avg = sampler.stop();
  EXPECT_EQ(avg.samples, 0u);
}

TEST(MemorySampler, SamplesWhileMutatorsRun) {
  // The mutators run until a collection has happened since start(), so
  // the sampler's first tick lands while they run however they are
  // scheduled; the cap turns a sampler that never collects into a
  // failure instead of a hang.
  constexpr uint64_t kCapNanos = 10'000'000'000;
  const uint64_t gcRuns0 = core::gauges().gcRuns.load();
  MemorySampler sampler(5);
  sampler.start();
  const uint64_t t0 = now_nanos();
  std::atomic<bool> capped{false};
  {
    std::vector<SbdThread> ts;
    for (int t = 0; t < 2; t++) {
      ts.emplace_back([&] {
        for (int i = 0; i < 500 || core::gauges().gcRuns.load() == gcRuns0; i++) {
          if (now_nanos() - t0 > kCapNanos) {
            capped = true;
            break;
          }
          Blob b = Blob::alloc();
          b.init_v(i);
          split();
        }
      });
    }
    for (auto& t : ts) t.start();
    for (auto& t : ts) t.join();
  }
  ASSERT_FALSE(capped.load()) << "no collection within the cap since start()";
  const auto avg = sampler.stop();
  EXPECT_GT(avg.samples, 0u);
}

}  // namespace
}  // namespace sbd::runtime
