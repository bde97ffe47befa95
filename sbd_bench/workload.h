// What every sbd_bench workload provides to main.cpp, which runs it.
#pragma once

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "spans.h"

namespace sbd::bench {

// Named values in insertion order; setting a name again overwrites it.
class Metrics {
 public:
  struct Entry {
    std::string name;
    double value;
    std::string unit;
  };
  void set(const std::string& name, double value, const std::string& unit) {
    for (Entry& e : entries_) {
      if (e.name == name) {
        e.value = value;
        e.unit = unit;
        return;
      }
    }
    entries_.push_back({name, value, unit});
  }
  const std::vector<Entry>& entries() const { return entries_; }

 private:
  std::vector<Entry> entries_;
};

// Correctness verdict of one run: every failed expectation is kept.
class Checks {
 public:
  void expect(bool ok, const std::string& what) {
    if (!ok) problems_.push_back(what);
  }
  bool ok() const { return problems_.empty(); }
  const std::vector<std::string>& problems() const { return problems_; }

 private:
  std::vector<std::string> problems_;
};

// Measured passes are cut into windows of about this length. The hosts
// this runs on change speed every few seconds (a fixed CPU loop took
// either ~0.030 or ~0.053 s, flipping within seconds), so a window
// mostly sees one host speed, and main.cpp summarizes over windows.
inline constexpr double kWindowS = 1.0;

struct Window {
  // Operation latencies (+inf for a failed operation), one group per
  // kind of operation; a latency percentile of the window is the
  // geometric mean of that percentile over the groups.
  std::vector<std::vector<double>> latencyMs;
  uint64_t completed = 0;  // operations that finished without failing
  // The time those operations took when it is not the whole window;
  // merging passes keeps the longest.
  double busyS = 0;
};

// One measured pass of a workload.
struct Pass {
  Pass(double seconds, size_t groups)
      : windows(seconds < kWindowS ? 1 : static_cast<size_t>(seconds / kWindowS),
                Window{std::vector<std::vector<double>>(groups), 0, 0}),
        windowS(seconds / static_cast<double>(windows.size())) {}

  // The window holding `t` seconds after the pass began measuring, or
  // null outside the pass.
  Window* window_at(double t) {
    if (!(t >= 0)) return nullptr;
    const auto i = static_cast<size_t>(t / windowS);
    return i < windows.size() ? &windows[i] : nullptr;
  }

  void merge(const Pass& other) {
    for (size_t i = 0; i < windows.size() && i < other.windows.size(); i++) {
      windows[i].completed += other.windows[i].completed;
      windows[i].busyS = std::max(windows[i].busyS, other.windows[i].busyS);
      for (size_t g = 0; g < windows[i].latencyMs.size(); g++)
        windows[i].latencyMs[g].insert(windows[i].latencyMs[g].end(),
                                       other.windows[i].latencyMs[g].begin(),
                                       other.windows[i].latencyMs[g].end());
    }
    attempted += other.attempted;
    failed += other.failed;
  }

  std::vector<Window> windows;
  double windowS;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

using Constants = std::vector<std::pair<std::string, std::string>>;

class Workload {
 public:
  virtual ~Workload() = default;

  // Builds the state the workload runs on; the first warm-up operation
  // follows it.
  virtual void setup() = 0;

  // Runs the workload's warm-up when `warm`, then measures for
  // `seconds`. `spans` is non-null only in the traced pass, which also
  // fills this workload's own per-layer metrics into `layer`.
  virtual Pass run(bool warm, double seconds, SpanLog* spans, Checks& checks,
                   Metrics& layer) = 0;

  // End-of-run invariants, checked once after the last pass.
  virtual void finish(Checks& checks) = 0;

  // The fixed parameters, for the run metadata.
  virtual Constants constants() const = 0;

  // True when the workload's main metric is latency (p50_ms), false
  // when it is throughput (ops_per_s); obs.trace_overhead compares it.
  virtual bool latency_bound() const = 0;
};

// Each returns nullptr for a name it does not own. `smoke` shrinks the
// workload to about a second of work with every check still on.
std::unique_ptr<Workload> make_serve_workload(const std::string& name, uint64_t seed,
                                              bool smoke);
std::unique_ptr<Workload> make_bank_workload(const std::string& name, uint64_t seed,
                                             bool smoke);
std::unique_ptr<Workload> make_dacapo_workload(const std::string& name, uint64_t seed,
                                               bool smoke);

}  // namespace sbd::bench
