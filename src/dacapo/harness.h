// The benchmark harness for the six DaCapo analogs (§5.1).
//
// Each benchmark comes in two variants over identical deterministic
// workloads:
//   baseline — explicit synchronization (std::mutex / std::atomic),
//              plain native data structures
//   sbd      — everything inside atomic sections on the managed
//              runtime, concurrency via splits
// Both variants return a workload checksum so tests can assert they
// computed the same result.
//
// The harness measures steady-state time (Georges et al., as in the
// paper's §5.1), collects the STM per-effect counters (Table 7), the
// transaction-footprint gauges (Table 8) and conflict counters
// (Table 9).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "common/timing.h"
#include "core/stats.h"

namespace sbd::dacapo {

// Workload scale: 1.0 reproduces the default sizes; benches pass
// smaller values for quick runs.
struct Scale {
  double factor = 1.0;

  uint64_t of(uint64_t base) const {
    const auto v = static_cast<uint64_t>(static_cast<double>(base) * factor);
    return v < 1 ? 1 : v;
  }
};

struct RunResult {
  double seconds = 0;
  uint64_t checksum = 0;
  core::StatsCounters stm;      // SBD variant only (diff over the run)
  uint64_t lockStructBytes = 0;  // gauge delta (Table 8 "Locks")
  uint64_t versionWordBytes = 0; // gauge delta (Table 8 "VersionWords")
};

// The Table 5 effort accounting of our ports, alongside the paper's
// numbers for the original Java benchmarks.
struct EffortReport {
  int splits = 0;       // split operations in the SBD variant
  int canSplits = 0;    // canSplit-scoped functions
  int customMods = 0;   // Table 4-style custom changes
  int finals = 0;       // final-marked fields
  int baselineMutexes = 0;   // synchronized analog in the baseline
  int baselineAtomics = 0;   // volatile analog in the baseline
  // The paper's numbers for the original benchmark (for the table).
  int paperSplits = 0, paperCustom = 0, paperCanSplit = 0, paperFinal = 0;
  int paperSync = 0, paperVolatile = 0;
};

struct Benchmark {
  std::string name;
  bool fixedThreads = false;  // LuIndex: fixed main + worker
  std::function<RunResult(const Scale&, int threads)> baseline;
  std::function<RunResult(const Scale&, int threads)> sbd;
  EffortReport effort;
};

// All six benchmarks in the paper's order.
std::vector<Benchmark> all_benchmarks();
Benchmark luindex_benchmark();
Benchmark lusearch_benchmark();
Benchmark pmd_benchmark();
Benchmark sunflow_benchmark();
Benchmark h2_benchmark();
Benchmark tomcat_benchmark();

// Runs `run` with STM accounting wrapped around it.
RunResult measure_sbd_run(const std::function<uint64_t()>& run);
RunResult measure_baseline_run(const std::function<uint64_t()>& run);

}  // namespace sbd::dacapo
