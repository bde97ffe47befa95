// sbd_bench — one benchmark for the SBD runtime.
//
//   sbd_bench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--json PATH]
//   sbd_bench --smoke        (also what running it with no arguments does)
//
// A run first times the workload's set-up in child processes started
// with --setup-only (the median is setup_s), then sets it up, warms it
// up, measures it for S seconds with tracing off and prints every
// end-to-end metric. With --trace 1 the measured time is
// split in two: an untraced half, then a half with the obs tracer on
// and with spans recorded around each call the bench makes into a
// layer; that run prints every per-layer metric, compares the two
// halves (obs.trace_overhead) and writes the spans to
// <workload>.spans.tsv in the working directory. Every run checks the
// program's outputs; the last line of standard output is one JSON
// object with the verdict and the metrics, and a failed check makes
// the exit code 1.
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "layers.h"
#include "runtime/heap.h"
#include "stats.h"
#include "workload.h"

namespace sbd::bench {
namespace {

const char* const kWorkloads[] = {"serve-kv", "serve-txfer", "dacapo", "bank-audit"};
constexpr double kDefaultSeconds = 20;
constexpr double kSmokeSeconds = 1;
constexpr uint64_t kDefaultSeed = 1;
constexpr size_t kSpansPerBuffer = 200000;
constexpr int kSetupRuns = 20;

struct MetricSpec {
  const char* name;
  const char* unit;
};

// Every per-layer metric; a traced run prints all of them, with 0 for
// the layers its workload does not reach.
const MetricSpec kLayerMetrics[] = {
    {"loadgen.late_ms_p95", "ms"},
    {"loadgen.reconnects", "count"},
    {"net.connect_us_p50", "us"},
    {"net.write_us_p50", "us"},
    {"net.wait_us_p50", "us"},
    {"net.wait_us_p95", "us"},
    {"net.replay_parse_us", "us"},
    {"net.replay_serialize_us", "us"},
    {"serve.aborts_per_request", "1/request"},
    {"serve.keepalive_reuse_share", "ratio"},
    {"serve.resp_4xx_share", "ratio"},
    {"db.get_us", "us"},
    {"db.put_us", "us"},
    {"db.txfer_us", "us"},
    {"core.sections_per_op", "1/op"},
    {"core.abort_share", "ratio"},
    {"core.deadlocks_resolved", "count"},
    {"core.contended_per_op", "1/op"},
    {"core.lock_wait_us_p50", "us"},
    {"core.lock_wait_us_p99", "us"},
    {"core.commit_us_p50", "us"},
    {"core.split_us_p50", "us"},
    {"core.parked", "count"},
    {"core.futex_wakes", "count"},
    {"core.handoffs", "count"},
    {"core.escalations", "count"},
    {"core.buffer_bytes_per_commit", "bytes"},
    {"runtime.acq_rls_per_op", "1/op"},
    {"runtime.check_owned_per_op", "1/op"},
    {"runtime.check_new_per_op", "1/op"},
    {"runtime.lock_init_per_op", "1/op"},
    {"runtime.lock_struct_bytes", "bytes"},
    {"runtime.lockpool_reuse_share", "ratio"},
    {"runtime.gc_runs", "count"},
    {"runtime.gc_pause_ms_total", "ms"},
    {"runtime.gc_pause_ms_max", "ms"},
    {"runtime.safepoint_stop_us_p99", "us"},
    {"dacapo.LuIndex.sbd_s", "s"},
    {"dacapo.LuIndex.overhead_x", "x"},
    {"dacapo.LuSearch.sbd_s", "s"},
    {"dacapo.LuSearch.overhead_x", "x"},
    {"dacapo.PMD.sbd_s", "s"},
    {"dacapo.PMD.overhead_x", "x"},
    {"dacapo.Sunflow.sbd_s", "s"},
    {"dacapo.Sunflow.overhead_x", "x"},
    {"dacapo.H2.sbd_s", "s"},
    {"dacapo.H2.overhead_x", "x"},
    {"dacapo.Tomcat.sbd_s", "s"},
    {"dacapo.Tomcat.overhead_x", "x"},
    {"dacapo.overhead_x", "x"},
    {"obs.events_dropped", "count"},
    {"obs.trace_overhead", "x"},
};

struct Outcome {
  Metrics metrics;
  Checks checks;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Constants constants;
};

std::unique_ptr<Workload> make_workload(const std::string& name, uint64_t seed, bool smoke) {
  if (auto w = make_serve_workload(name, seed, smoke)) return w;
  if (auto w = make_bank_workload(name, seed, smoke)) return w;
  return make_dacapo_workload(name, seed, smoke);
}

// A window's latency percentile: the geometric mean of the percentile
// over its groups; NaN when a group has no sample.
double window_latency(const Window& w, double q) {
  std::vector<double> perGroup;
  for (const auto& g : w.latencyMs) {
    if (g.empty()) return std::nan("");
    perGroup.push_back(percentile(g, q));
  }
  return geomean(perGroup);
}

struct Summary {
  double p50 = 0, p95 = 0, opsPerS = 0, p99 = 0, p999 = 0;
};

// p50, p95 and throughput are taken per window and reported at the
// windows' fast quartile (the first quartile of the latencies, the
// third of the throughputs), so a run reads the program's speed, not
// the share of the run the host spent slow. p99 and p999 pool every
// window.
Summary summarize(const Pass& p) {
  std::vector<double> p50, p95, ops;
  Window all{std::vector<std::vector<double>>(p.windows.front().latencyMs.size()), 0, 0};
  for (const Window& w : p.windows) {
    ops.push_back(static_cast<double>(w.completed) / (w.busyS > 0 ? w.busyS : p.windowS));
    const double median = window_latency(w, 0.50);
    if (!std::isnan(median)) {
      p50.push_back(median);
      p95.push_back(window_latency(w, 0.95));
    }
    for (size_t g = 0; g < w.latencyMs.size(); g++)
      all.latencyMs[g].insert(all.latencyMs[g].end(), w.latencyMs[g].begin(),
                              w.latencyMs[g].end());
  }
  Summary s;
  s.p50 = quartiles(p50).q1;
  s.p95 = quartiles(p95).q1;
  s.opsPerS = quartiles(ops).q3;
  s.p99 = window_latency(all, 0.99);
  s.p999 = window_latency(all, 0.999);
  return s;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// The time from spawning `sbd_bench --setup-only` to its "ready" line:
// process start-up, the runtime's start-up and the workload's set-up,
// up to where the first warm-up operation would begin. Negative when
// the child failed.
double time_setup(const std::string& workload, uint64_t seed, bool smoke) {
  int out[2];
  if (pipe(out) != 0) return -1;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  const std::string seedArg = std::to_string(seed);
  std::vector<char*> argv = {const_cast<char*>("sbd_bench"), const_cast<char*>("--setup-only"),
                             const_cast<char*>("--workload"), const_cast<char*>(workload.c_str()),
                             const_cast<char*>("--seed"), const_cast<char*>(seedArg.c_str())};
  if (smoke) argv.push_back(const_cast<char*>("--smoke"));
  argv.push_back(nullptr);
  const uint64_t t0 = now_nanos();
  pid_t pid = -1;
  const int spawned =
      posix_spawn(&pid, "/proc/self/exe", &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(out[1]);
  std::string got;
  char buf[64];
  ssize_t n = 0;
  while (spawned == 0 && got.find("ready\n") == std::string::npos &&
         (n = read(out[0], buf, sizeof(buf))) > 0)
    got.append(buf, static_cast<size_t>(n));
  const double seconds = static_cast<double>(now_nanos() - t0) / 1e9;
  close(out[0]);
  int status = 0;
  if (spawned != 0 || waitpid(pid, &status, 0) != pid) return -1;
  const bool ok = got.find("ready\n") != std::string::npos && WIFEXITED(status) &&
                  WEXITSTATUS(status) == 0;
  return ok ? seconds : -1;
}

Outcome run_workload(const std::string& name, uint64_t seed, double seconds, bool trace,
                     bool smoke) {
  Outcome o;
  // Half of the set-up processes run before the workload and half after
  // it, so that setup_s does not rest on one moment of the host's speed.
  std::vector<double> setupS;
  auto time_setups = [&](int n) {
    for (int i = 0; i < n; i++) {
      setupS.push_back(time_setup(name, seed, smoke));
      o.checks.expect(setupS.back() >= 0, "a set-up process failed");
    }
  };
  time_setups(smoke ? 1 : kSetupRuns / 2);
  std::unique_ptr<Workload> w = make_workload(name, seed, smoke);
  o.constants = w->constants();
  w->setup();

  Metrics layer;
  const Pass base = w->run(true, trace ? seconds / 2 : seconds, nullptr, o.checks, layer);
  const Summary untraced = summarize(base);
  o.attempted = base.attempted;
  o.failed = base.failed;
  o.metrics.set("p50_ms", untraced.p50, "ms");
  o.metrics.set("p95_ms", untraced.p95, "ms");
  o.metrics.set("p99_ms", untraced.p99, "ms");
  o.metrics.set("p999_ms", untraced.p999, "ms");
  o.metrics.set("ops_per_s", untraced.opsPerS, "1/s");

  if (trace) {
    SpanLog spans(kSpansPerBuffer);
    LayerProbe probe(spans);
    const Pass traced = w->run(false, seconds / 2, &spans, o.checks, layer);
    probe.finish(static_cast<double>(traced.attempted - traced.failed), layer);
    o.attempted += traced.attempted;
    o.failed += traced.failed;
    const Summary t = summarize(traced);
    const double overhead =
        w->latency_bound() ? t.p50 / untraced.p50 : untraced.opsPerS / t.opsPerS;
    layer.set("obs.trace_overhead", overhead, "x");
    const std::string path = name + ".spans.tsv";
    o.checks.expect(spans.write(path), "cannot write " + path);
    std::printf("spans: %zu written to %s, %llu over the per-thread cap\n", spans.size(),
                path.c_str(), static_cast<unsigned long long>(spans.dropped()));
  }
  w->finish(o.checks);
  o.metrics.set("peak_rss_mb", peak_rss_mb(), "MB");
  time_setups(smoke ? 0 : kSetupRuns - kSetupRuns / 2);
  o.metrics.set("setup_s", median(setupS), "s");

  if (trace) {
    std::set<std::string> known;
    for (const MetricSpec& m : kLayerMetrics) known.insert(m.name);
    for (const auto& e : layer.entries())
      o.checks.expect(known.count(e.name) == 1, "unlisted per-layer metric " + e.name);
    for (const MetricSpec& m : kLayerMetrics) {
      double v = 0;
      for (const auto& e : layer.entries())
        if (e.name == m.name) v = e.value;
      o.metrics.set(m.name, v, m.unit);
    }
  }
  return o;
}

// --- Run metadata ---------------------------------------------------------

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      return colon == std::string::npos ? line : line.substr(colon + 2);
    }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// How often this host takes the CPU away from spinning threads: gaps
// over 1 ms per second of spinning, with `threads` spinners at once.
struct Preemption {
  double gapsPerS = 0;
  double maxGapMs = 0;
};

Preemption probe_preemption(int threads) {
  std::atomic<uint64_t> gaps{0};
  std::atomic<uint64_t> maxGapNs{0};
  std::vector<std::thread> spinners;
  const uint64_t end = now_nanos() + 1'000'000'000ULL;
  for (int t = 0; t < threads; t++)
    spinners.emplace_back([&] {
      uint64_t prev = now_nanos(), worst = 0, n = 0;
      for (uint64_t now = prev; now < end; now = now_nanos()) {
        if (now - prev > 1'000'000) n++;
        worst = std::max(worst, now - prev);
        prev = now;
      }
      gaps += n;
      uint64_t seen = maxGapNs.load();
      while (worst > seen && !maxGapNs.compare_exchange_weak(seen, worst)) {
      }
    });
  for (auto& s : spinners) s.join();
  return {static_cast<double>(gaps.load()) / threads,
          static_cast<double>(maxGapNs.load()) / 1e6};
}

// --- Output -----------------------------------------------------------------

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// Full precision; JSON has no infinity, and a percentile that reaches
// a failed operation is infinite, so it prints as 1e300.
std::string json_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 1e300);
  return buf;
}

std::string metrics_json(const Metrics& m) {
  std::string out = "{";
  for (size_t i = 0; i < m.entries().size(); i++) {
    const auto& e = m.entries()[i];
    out += (i ? ", " : "") + json_string(e.name) + ": {\"value\": " + json_value(e.value) +
           ", \"unit\": " + json_string(e.unit) + "}";
  }
  return out + "}";
}

std::string problems_json(const Checks& c) {
  std::string out = "[";
  for (size_t i = 0; i < c.problems().size(); i++)
    out += (i ? ", " : "") + json_string(c.problems()[i]);
  return out + "]";
}

bool write_json_file(const std::string& path, const std::string& workload, uint64_t seed,
                     double seconds, bool trace, const Outcome& o) {
  const Preemption one = probe_preemption(1);
  const Preemption two = probe_preemption(2);
  std::string constants = "{";
  for (size_t i = 0; i < o.constants.size(); i++)
    constants += (i ? ", " : "") + json_string(o.constants[i].first) + ": " +
                 json_string(o.constants[i].second);
  constants += "}";
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(
      f,
      "{\n  \"workload\": %s,\n  \"seed\": %llu,\n  \"seconds\": %s,\n  \"trace\": %s,\n"
      "  \"host\": {\"nproc\": %u, \"cpu_model\": %s, \"compiler\": %s, \"build_type\": %s, "
      "\"git_sha\": %s,\n    \"preemption\": {\"gaps_over_1ms_per_s_1_thread\": %s, "
      "\"max_gap_ms_1_thread\": %s, \"gaps_over_1ms_per_s_2_threads\": %s, "
      "\"max_gap_ms_2_threads\": %s}},\n"
      "  \"constants\": %s,\n  \"correct\": %s,\n  \"problems\": %s,\n"
      "  \"attempted\": %llu,\n  \"failed\": %llu,\n  \"metrics\": %s\n}\n",
      json_string(workload).c_str(), static_cast<unsigned long long>(seed),
      json_value(seconds).c_str(), trace ? "true" : "false",
      std::thread::hardware_concurrency(), json_string(cpu_model()).c_str(),
      json_string(compiler()).c_str(), json_string(SBD_BENCH_BUILD_TYPE).c_str(),
      json_string(SBD_BENCH_GIT_SHA).c_str(), json_value(one.gapsPerS).c_str(),
      json_value(one.maxGapMs).c_str(), json_value(two.gapsPerS).c_str(),
      json_value(two.maxGapMs).c_str(), constants.c_str(), o.checks.ok() ? "true" : "false",
      problems_json(o.checks).c_str(), static_cast<unsigned long long>(o.attempted),
      static_cast<unsigned long long>(o.failed), metrics_json(o.metrics).c_str());
  const bool ok = std::ferror(f) == 0;
  return std::fclose(f) == 0 && ok;
}

void print_report(const std::string& workload, const Outcome& o) {
  std::printf("%s: %llu attempted, %llu failed, %s\n", workload.c_str(),
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed),
              o.checks.ok() ? "all checks passed" : "CHECKS FAILED");
  for (const std::string& p : o.checks.problems()) std::printf("  check failed: %s\n", p.c_str());
  for (const auto& e : o.metrics.entries())
    std::printf("  %-34s %.6g %s\n", e.name.c_str(), e.value, e.unit.c_str());
}

int smoke(uint64_t seed) {
  bool ok = true;
  for (const char* name : kWorkloads) {
    const Outcome o = run_workload(name, seed, kSmokeSeconds, /*trace=*/true, /*smoke=*/true);
    print_report(name, o);
    ok = ok && o.checks.ok() && o.failed == 0 && o.attempted > 0;
  }
  std::printf("smoke: %s\n", ok ? "ok" : "FAILED");
  return ok ? 0 : 1;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload {serve-kv|serve-txfer|dacapo|bank-audit} [--seed N]\n"
               "          [--seconds S] [--trace 0|1] [--json PATH]\n"
               "       %s [--smoke]\n",
               argv0, argv0);
  return 2;
}

}  // namespace
}  // namespace sbd::bench

int main(int argc, char** argv) {
  using namespace sbd::bench;
  SBD_ATTACH_THREAD();
  std::string workload, jsonPath;
  uint64_t seed = kDefaultSeed;
  double seconds = kDefaultSeconds;
  bool trace = false;
  bool smokeRun = argc == 1;
  bool setupOnly = false;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    const bool hasValue = i + 1 < argc;
    if (a == "--smoke") {
      smokeRun = true;
    } else if (a == "--setup-only") {
      setupOnly = true;
    } else if (a == "--trace") {
      // A bare --trace means --trace 1.
      trace = true;
      if (hasValue && (!std::strcmp(argv[i + 1], "0") || !std::strcmp(argv[i + 1], "1")))
        trace = argv[++i][0] == '1';
    } else if (a == "--workload" && hasValue) {
      workload = argv[++i];
    } else if (a == "--seed" && hasValue) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && hasValue) {
      seconds = std::atof(argv[++i]);
    } else if (a == "--json" && hasValue) {
      jsonPath = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || workload == w;
  if (setupOnly) {
    if (!known) return usage(argv[0]);
    // Timed by the parent (time_setup); the process ends without
    // tearing anything down.
    make_workload(workload, seed, smokeRun)->setup();
    std::printf("ready\n");
    std::fflush(stdout);
    std::_Exit(0);
  }
  if (smokeRun) return smoke(seed);
  if (!known || !(seconds > 0)) return usage(argv[0]);

  const Outcome o = run_workload(workload, seed, seconds, trace, /*smoke=*/false);
  print_report(workload, o);
  if (!jsonPath.empty() && !write_json_file(jsonPath, workload, seed, seconds, trace, o)) {
    std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
    return 1;
  }
  std::printf("{\"workload\": %s, \"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"problems\": %s, \"metrics\": %s}\n",
              json_string(workload).c_str(), o.checks.ok() ? "true" : "false",
              static_cast<unsigned long long>(o.attempted),
              static_cast<unsigned long long>(o.failed), problems_json(o.checks).c_str(),
              metrics_json(o.metrics).c_str());
  return o.checks.ok() ? 0 : 1;
}
