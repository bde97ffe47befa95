#include "layers.h"

#include <algorithm>
#include <chrono>
#include <cstdlib>

#include "core/obs.h"
#include "core/transaction.h"
#include "stats.h"

namespace sbd::bench {

namespace {

// Drain often: each thread's ring holds 4096 events, and a contended
// run records several events per lock wait.
constexpr auto kDrainPeriod = std::chrono::milliseconds(5);

core::StatsCounters snapshot(SpanBuffer* buf) {
  ScopedSpan span(buf, "core.snapshot_stats");
  return core::TxnManager::instance().snapshot_stats();
}

std::string metrics(SpanBuffer* buf) {
  ScopedSpan span(buf, "obs.metrics_json");
  return obs::metrics_json();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

}  // namespace

double json_number(const std::string& json, const char* section, const char* key) {
  size_t from = 0;
  if (section) {
    from = json.find("\"" + std::string(section) + "\"");
    if (from == std::string::npos) return 0;
  }
  const std::string needle = "\"" + std::string(key) + "\": ";
  const size_t at = json.find(needle, from);
  if (at == std::string::npos) return 0;
  return std::strtod(json.c_str() + at + needle.size(), nullptr);
}

LayerProbe::LayerProbe(SpanLog& spans) : spans_(spans.buffer()) {
  obs::drain();  // discard whatever an earlier pass left in the rings
  statsBefore_ = snapshot(spans_);
  jsonBefore_ = metrics(spans_);
  droppedBefore_ = obs::dropped();
  obs::set_enabled(true);
  drainer_ = std::thread([this] {
    while (!stopping_.load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(kDrainPeriod);
      drain();
    }
  });
}

LayerProbe::~LayerProbe() { stop(); }

void LayerProbe::stop() {
  if (!drainer_.joinable()) return;
  stopping_.store(true, std::memory_order_release);
  drainer_.join();
  obs::set_enabled(false);
}

void LayerProbe::drain() {
  const uint64_t start = now_nanos();
  const std::vector<obs::Event> events = obs::drain();
  drainNs_.emplace_back(start, now_nanos());
  for (const obs::Event& e : events) {
    const double us = static_cast<double>(e.durationNanos) / 1e3;
    switch (e.kind) {
      case obs::EventKind::kGranted: grantedUs_.push_back(us); break;
      case obs::EventKind::kCommit: commitUs_.push_back(us); break;
      case obs::EventKind::kSplit: splitUs_.push_back(us); break;
      case obs::EventKind::kGcPause: gcPauseMs_.push_back(us / 1e3); break;
      case obs::EventKind::kSafepointStop: safepointUs_.push_back(us); break;
      default: break;
    }
  }
}

void LayerProbe::finish(double ops, Metrics& out) {
  stop();
  drain();
  for (const auto& [start, end] : drainNs_)
    spans_->add("obs.drain", start, end, spans_->next_id(), 0, 0);
  const core::StatsCounters d = snapshot(spans_).diff(statsBefore_);
  const std::string json = metrics(spans_);
  auto delta = [&](const char* section, const char* key) {
    return json_number(json, section, key) - json_number(jsonBefore_, section, key);
  };
  const double commits = static_cast<double>(d.commits);
  const double aborts = static_cast<double>(d.aborts);

  out.set("core.sections_per_op", ratio(commits, ops), "1/op");
  out.set("core.abort_share", ratio(aborts, commits + aborts), "ratio");
  out.set("core.deadlocks_resolved", static_cast<double>(d.deadlocksResolved), "count");
  out.set("core.contended_per_op", ratio(static_cast<double>(d.contendedAcquires), ops), "1/op");
  out.set("core.lock_wait_us_p50", percentile(grantedUs_, 0.50), "us");
  out.set("core.lock_wait_us_p99", percentile(grantedUs_, 0.99), "us");
  out.set("core.commit_us_p50", percentile(commitUs_, 0.50), "us");
  out.set("core.split_us_p50", percentile(splitUs_, 0.50), "us");
  out.set("core.parked", delta("parking", "parked"), "count");
  out.set("core.futex_wakes", delta("parking", "futex_wakes"), "count");
  out.set("core.handoffs", delta("parking", "handoffs"), "count");
  out.set("core.escalations", static_cast<double>(d.escalations), "count");
  out.set("core.buffer_bytes_per_commit", ratio(static_cast<double>(d.bufferBytesSum), commits),
          "bytes");

  out.set("runtime.acq_rls_per_op", ratio(static_cast<double>(d.acqRls), ops), "1/op");
  out.set("runtime.check_owned_per_op", ratio(static_cast<double>(d.checkOwned), ops), "1/op");
  out.set("runtime.check_new_per_op", ratio(static_cast<double>(d.checkNew), ops), "1/op");
  out.set("runtime.lock_init_per_op", ratio(static_cast<double>(d.lockInit), ops), "1/op");
  out.set("runtime.lock_struct_bytes", json_number(json, "gauges", "lockStructBytes"), "bytes");
  const double reuses = delta("lockpool", "reuses");
  out.set("runtime.lockpool_reuse_share", ratio(reuses, reuses + delta("lockpool", "allocs")),
          "ratio");
  out.set("runtime.gc_runs", delta("gauges", "gcRuns"), "count");
  double gcTotal = 0;
  for (double ms : gcPauseMs_) gcTotal += ms;
  out.set("runtime.gc_pause_ms_total", gcTotal, "ms");
  out.set("runtime.gc_pause_ms_max",
          gcPauseMs_.empty() ? 0 : *std::max_element(gcPauseMs_.begin(), gcPauseMs_.end()),
          "ms");
  out.set("runtime.safepoint_stop_us_p99", percentile(safepointUs_, 0.99), "us");

  out.set("obs.events_dropped", static_cast<double>(obs::dropped() - droppedBefore_), "count");
}

}  // namespace sbd::bench
