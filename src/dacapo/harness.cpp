#include "dacapo/harness.h"

#include "core/transaction.h"

namespace sbd::dacapo {

RunResult measure_sbd_run(const std::function<uint64_t()>& run) {
  auto& mgr = core::TxnManager::instance();
  const auto statsBefore = mgr.snapshot_stats();
  const uint64_t locksBefore = core::gauges().lockStructBytes.load();
  const uint64_t stampsBefore = core::gauges().versionWordBytes.load();
  Stopwatch sw;
  const uint64_t checksum = run();
  RunResult r;
  r.seconds = sw.seconds();
  r.checksum = checksum;
  r.stm = mgr.snapshot_stats().diff(statsBefore);
  const uint64_t locksAfter = core::gauges().lockStructBytes.load();
  r.lockStructBytes = locksAfter > locksBefore ? locksAfter - locksBefore : 0;
  const uint64_t stampsAfter = core::gauges().versionWordBytes.load();
  r.versionWordBytes = stampsAfter > stampsBefore ? stampsAfter - stampsBefore : 0;
  return r;
}

RunResult measure_baseline_run(const std::function<uint64_t()>& run) {
  Stopwatch sw;
  const uint64_t checksum = run();
  RunResult r;
  r.seconds = sw.seconds();
  r.checksum = checksum;
  return r;
}

std::vector<Benchmark> all_benchmarks() {
  std::vector<Benchmark> out;
  out.push_back(luindex_benchmark());
  out.push_back(lusearch_benchmark());
  out.push_back(pmd_benchmark());
  out.push_back(sunflow_benchmark());
  out.push_back(h2_benchmark());
  out.push_back(tomcat_benchmark());
  return out;
}

}  // namespace sbd::dacapo
