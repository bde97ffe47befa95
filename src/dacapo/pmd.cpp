// PMD analog: a pool of worker threads pulls source files from a task
// queue, analyzes them against the rule set, and records violations in
// a shared report plus per-rule statistics counters.
//
// Table 4 fix reproduced: the statistic counters are updated
// thread-locally and aggregated on read (two counters, as the paper
// lists "2" custom modifications for PMD).
#include <atomic>
#include <mutex>
#include <thread>

#include "analyzer/analyzer.h"
#include "api/sbd.h"
#include "common/rng.h"
#include "dacapo/harness.h"
#include "jcl/collections.h"
#include "threads/tx_local.h"

namespace sbd::dacapo {

namespace {

struct PmdConfig {
  analyzer::SourceGenConfig gen;
  uint64_t numFiles;
};

PmdConfig make_config(const Scale& s) {
  PmdConfig cfg;
  cfg.numFiles = s.of(60);
  cfg.gen.functionsPerFile = 8;
  return cfg;
}

// --- Baseline ---------------------------------------------------------------

uint64_t run_baseline_once(const PmdConfig& cfg, int threads) {
  const auto rules = analyzer::default_rules();
  std::atomic<uint64_t> nextFile{0};
  std::mutex reportMu;
  std::vector<analyzer::Violation> report;
  std::atomic<uint64_t> filesDone{0}, violationsTotal{0};

  std::vector<std::thread> ts;
  for (int t = 0; t < threads; t++) {
    ts.emplace_back([&] {
      for (;;) {
        const uint64_t f = nextFile.fetch_add(1, std::memory_order_relaxed);
        if (f >= cfg.numFiles) return;
        const std::string src = analyzer::generate_source(cfg.gen, f);
        auto violations = analyzer::analyze(src, rules);
        violationsTotal.fetch_add(violations.size(), std::memory_order_relaxed);
        filesDone.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lk(reportMu);
        for (auto& v : violations) report.push_back(std::move(v));
      }
    });
  }
  for (auto& t : ts) t.join();
  uint64_t sum = violationsTotal.load() * 1000 + filesDone.load();
  for (const auto& v : report) sum += sbd::fnv1a(v.rule);
  return sum;
}

// --- SBD ---------------------------------------------------------------------

class ViolationRec : public runtime::TypedRef<ViolationRec> {
 public:
  SBD_CLASS(ViolationRec, SBD_SLOT_FINAL_REF("rule"), SBD_SLOT_FINAL("line"))
  SBD_FIELD_FINAL_REF(0, rule, runtime::MString)
  SBD_FIELD_FINAL_I64(1, line)
  static ViolationRec make(const analyzer::Violation& v) {
    ViolationRec r = alloc();
    r.init_rule(runtime::MString::make(v.rule));
    r.init_line(v.line);
    return r;
  }
};

uint64_t run_sbd_once(const PmdConfig& cfg, int threads) {
  const auto rules = analyzer::default_rules();
  // Thread-local counters, aggregated on read (Table 4 / PMD "2").
  static threads::TxLocalI64 localFilesDone, localViolations;
  runtime::GlobalRoot<jcl::MVector> report;
  runtime::GlobalRoot<runtime::I64Array> nextFile;
  runtime::GlobalRoot<runtime::I64Array> totals;  // aggregated at the end
  run_sbd([&] {
    report.set(jcl::MVector::make(64));
    nextFile.set(runtime::I64Array::make(1));
    totals.set(runtime::I64Array::make(2));
  });
  {
    std::vector<threads::SbdThread> ts;
    for (int t = 0; t < threads; t++) {
      ts.emplace_back([&] {
        localFilesDone.set(0);
        localViolations.set(0);
        for (;;) {
          // Claim the next file id (hot counter), split right after
          // (§5.2 solution 1).
          const int64_t f = nextFile.get().get(0);
          if (f >= static_cast<int64_t>(cfg.numFiles)) break;
          nextFile.get().set(0, f + 1);
          split();
          // Restore-safety: the strings/vectors live in an inner scope
          // that closes BEFORE the split, so a later abort never
          // re-unwinds live non-trivial locals (DESIGN.md caveat).
          {
            // Analysis works on locals: no synchronization (Table 1).
            const std::string src =
                analyzer::generate_source(cfg.gen, static_cast<uint64_t>(f));
            auto violations = analyzer::analyze(src, rules);
            // Thread-local statistics (Table 4).
            localFilesDone.add(1);
            localViolations.add(static_cast<int64_t>(violations.size()));
            // Shared report append.
            for (const auto& v : violations)
              report.get().push(ViolationRec::make(v).raw());
          }
          split();
        }
        // Aggregate once.
        totals.get().set(0, totals.get().get(0) + localFilesDone.get());
        totals.get().set(1, totals.get().get(1) + localViolations.get());
        split();
      });
    }
    for (auto& t : ts) t.start();
    for (auto& t : ts) t.join();
  }
  uint64_t sum = 0;
  run_sbd([&] {
    sum = static_cast<uint64_t>(totals.get().get(1)) * 1000 +
          static_cast<uint64_t>(totals.get().get(0));
    for (int64_t i = 0; i < report.get().size(); i++)
      sum += sbd::fnv1a(report.get().at<ViolationRec>(i).rule().view());
  });
  return sum;
}

}  // namespace

Benchmark pmd_benchmark() {
  Benchmark b;
  b.name = "PMD";
  b.baseline = [](const Scale& s, int threads) {
    const auto cfg = make_config(s);
    return measure_baseline_run([&] { return run_baseline_once(cfg, threads); });
  };
  b.sbd = [](const Scale& s, int threads) {
    const auto cfg = make_config(s);
    return measure_sbd_run([&] { return run_sbd_once(cfg, threads); });
  };
  b.effort = EffortReport{3, 1, 2, 2, 1, 3, 2, 2, 4, 158, 2, 0};
  return b;
}

}  // namespace sbd::dacapo
