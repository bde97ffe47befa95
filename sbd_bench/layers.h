// Per-layer counters of the core, runtime and obs layers over one
// traced pass. They are read only through the layers' public entry
// points (TxnManager::snapshot_stats, obs::metrics_json, obs::drain),
// and each of those calls is itself recorded as a span.
#pragma once

#include <atomic>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/stats.h"
#include "spans.h"
#include "workload.h"

namespace sbd::bench {

// The number after `"key": ` in `json`, searching from the first
// `"section"` when `section` is given; 0 when absent.
double json_number(const std::string& json, const char* section, const char* key);

class LayerProbe {
 public:
  // Snapshots the counters, turns the obs tracer on and starts a thread
  // that drains its rings often enough that they rarely overflow.
  explicit LayerProbe(SpanLog& spans);
  ~LayerProbe();
  LayerProbe(const LayerProbe&) = delete;
  LayerProbe& operator=(const LayerProbe&) = delete;

  // Turns the tracer off and writes core.*, runtime.* and
  // obs.events_dropped; `ops` is the operations the pass completed.
  void finish(double ops, Metrics& out);

 private:
  void stop();
  void drain();

  SpanBuffer* spans_;
  core::StatsCounters statsBefore_;
  std::string jsonBefore_;
  uint64_t droppedBefore_ = 0;
  // Written by the drain thread until stop() joins it: event durations,
  // and the start and end of every obs::drain call, which finish()
  // turns into spans (the span buffers are not the drain thread's).
  std::vector<double> grantedUs_, commitUs_, splitUs_, gcPauseMs_, safepointUs_;
  std::vector<std::pair<uint64_t, uint64_t>> drainNs_;
  std::atomic<bool> stopping_{false};
  std::thread drainer_;
};

}  // namespace sbd::bench
