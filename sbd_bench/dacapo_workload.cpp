// dacapo: the six DaCapo analogs, SBD variant against the explicitly
// locked baseline (the paper's Table 9 overhead measure). This is where
// the runtime layer does its work: Fig. 5 lock effects, the lock pool,
// GC and safepoints, plus jcl, threads and tio. The analogs' inputs are
// fixed by their scale, so the seed is not used.
//
// Scale 1 rather than a larger one: every end-to-end metric includes a
// p95, and a run needs about a hundred samples per analog for the p95
// to have several runs beyond it.
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dacapo/harness.h"
#include "stats.h"
#include "workload.h"

namespace sbd::bench {

namespace {

constexpr double kScale = 1;
constexpr double kSmokeScale = 0.25;
constexpr int kThreads = 2;
constexpr int kWarmupIters = 3;
constexpr int kSmokeWarmupIters = 1;
// The H2 baseline retries a business transaction that hit a DB
// deadlock with fresh random draws, while the SBD variant replays the
// same draws, so after a deadlock the two checksums legitimately
// differ. Its SBD checksum is still checked against itself.
const char* const kScheduleDependentBaseline = "H2";

class DacapoWorkload final : public Workload {
 public:
  explicit DacapoWorkload(bool smoke) : smoke_(smoke), scale_{smoke ? kSmokeScale : kScale} {}

  void setup() override {
    benches_ = dacapo::all_benchmarks();
    sbdChecksum_.assign(benches_.size(), std::nullopt);
    sbdSpan_.clear();
    baseSpan_.clear();
    for (const auto& b : benches_) {
      sbdSpan_.push_back("dacapo." + b.name + ".sbd");
      baseSpan_.push_back("dacapo." + b.name + ".baseline");
    }
  }

  Pass run(bool warm, double seconds, SpanLog* spans, Checks& checks,
           Metrics& layer) override {
    SpanBuffer* buf = spans ? spans->buffer() : nullptr;
    const size_t n = benches_.size();
    std::vector<double> sbdS(n), baseS(n);
    if (warm)
      for (int i = 0; i < (smoke_ ? kSmokeWarmupIters : kWarmupIters); i++)
        iterate(nullptr, checks, sbdS, baseS);
    Pass pass(seconds, n);
    std::vector<std::vector<double>> allSbdS(n), allBaseS(n);
    const uint64_t start = now_nanos();
    for (uint64_t t0 = start; t0 - start < static_cast<uint64_t>(seconds * 1e9); t0 = now_nanos()) {
      iterate(buf, checks, sbdS, baseS);
      // A whole iteration goes to the window it started in, so every
      // window holds every analog.
      Window* w = pass.window_at(static_cast<double>(t0 - start) / 1e9);
      for (size_t i = 0; i < n; i++) {
        allSbdS[i].push_back(sbdS[i]);
        allBaseS[i].push_back(baseS[i]);
        if (w) {
          w->latencyMs[i].push_back(sbdS[i] * 1e3);
          w->busyS += sbdS[i];
        }
      }
      if (w) w->completed += n;
      pass.attempted += n;
    }
    if (spans) {
      std::vector<double> overheads;
      for (size_t i = 0; i < n; i++) {
        const double sbdMedian = median(allSbdS[i]);
        overheads.push_back(sbdMedian / median(allBaseS[i]));
        layer.set("dacapo." + benches_[i].name + ".sbd_s", sbdMedian, "s");
        layer.set("dacapo." + benches_[i].name + ".overhead_x", overheads.back(), "x");
      }
      layer.set("dacapo.overhead_x", geomean(overheads), "x");
    }
    std::printf("dacapo: %llu of %llu %s baselines so far diverged after a DB deadlock retry\n",
                static_cast<unsigned long long>(divergedBaselines_),
                static_cast<unsigned long long>(iterations_), kScheduleDependentBaseline);
    return pass;
  }

  void finish(Checks&) override {}

  Constants constants() const override {
    return {{"scale", std::to_string(scale_.factor)},
            {"threads", std::to_string(kThreads)},
            {"warmup_iterations", std::to_string(smoke_ ? kSmokeWarmupIters : kWarmupIters)}};
  }

  bool latency_bound() const override { return true; }

 private:
  // One iteration: every analog's SBD variant, then its baseline, with
  // their times in seconds. The SBD checksum must equal the baseline's
  // and every earlier SBD checksum of the analog.
  void iterate(SpanBuffer* buf, Checks& checks, std::vector<double>& sbdS,
               std::vector<double>& baseS) {
    for (size_t i = 0; i < benches_.size(); i++) {
      const dacapo::Benchmark& b = benches_[i];
      dacapo::RunResult sbd, base;
      const uint64_t t0 = now_nanos();
      {
        ScopedSpan span(buf, sbdSpan_[i].c_str(), 0, iterations_);
        sbd = b.sbd(scale_, kThreads);
      }
      const uint64_t t1 = now_nanos();
      {
        ScopedSpan span(buf, baseSpan_[i].c_str(), 0, iterations_);
        base = b.baseline(scale_, kThreads);
      }
      const uint64_t t2 = now_nanos();
      if (!sbdChecksum_[i]) sbdChecksum_[i] = sbd.checksum;
      checks.expect(sbd.checksum == *sbdChecksum_[i],
                    b.name + ": SBD checksum " + std::to_string(sbd.checksum) +
                        " != its first " + std::to_string(*sbdChecksum_[i]));
      if (b.name == kScheduleDependentBaseline)
        divergedBaselines_ += base.checksum != sbd.checksum;
      else
        checks.expect(base.checksum == sbd.checksum,
                      b.name + ": SBD checksum " + std::to_string(sbd.checksum) +
                          " != baseline " + std::to_string(base.checksum));
      sbdS[i] = static_cast<double>(t1 - t0) / 1e9;
      baseS[i] = static_cast<double>(t2 - t1) / 1e9;
    }
    iterations_++;
  }

  bool smoke_;
  dacapo::Scale scale_;
  std::vector<dacapo::Benchmark> benches_;
  std::vector<std::optional<uint64_t>> sbdChecksum_;
  // Span names outlive every span that points at them.
  std::vector<std::string> sbdSpan_, baseSpan_;
  uint64_t iterations_ = 0;
  uint64_t divergedBaselines_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_dacapo_workload(const std::string& name, uint64_t,
                                               bool smoke) {
  if (name != "dacapo") return nullptr;
  return std::make_unique<DacapoWorkload>(smoke);
}

}  // namespace sbd::bench
