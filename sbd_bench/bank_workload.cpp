// bank-audit: STM lock contention on managed objects.
//
// Two SbdThreads run one operation per atomic section over 64 managed
// accounts. 90% of operations move 1 unit between two uniformly chosen
// accounts; 10% read all 64 balances and check the total. The audits
// hold read locks beside the transfers' write locks, so the run waits
// in the parking lot, resolves Dreadlocks deadlocks and restarts
// sections from their checkpoints. No other workload contends on
// managed objects.
#include <atomic>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/sbd.h"
#include "common/rng.h"
#include "placement.h"
#include "workload.h"

namespace sbd::bench {

namespace {

class BenchAccount : public runtime::TypedRef<BenchAccount> {
 public:
  SBD_CLASS(BenchAccount, SBD_SLOT("balance"))
  SBD_FIELD_I64(0, balance)
};

constexpr uint64_t kAccounts = 64;
constexpr int64_t kBalance = 1000;
constexpr int64_t kTotal = static_cast<int64_t>(kAccounts) * kBalance;
constexpr int kThreads = 2;
constexpr uint64_t kAuditPct = 10;
constexpr double kWarmupS = 2;
constexpr double kSmokeWarmupS = 0.2;
// Every 64th operation's latency is kept, so that the bench's own
// memory stays small and does not grow with throughput (well over a
// million operations per second).
constexpr uint64_t kLatencySampleEvery = 64;

enum Phase : int { kWarm, kMeasure, kStop };

// One worker thread's state. It lives on the C++ heap, which an abort
// does not roll back, so it is written only by the commit hook, except
// for `audit` and `seen`: the section body sets those on every attempt
// and the hook reads what the committed attempt wrote.
struct alignas(64) Worker {
  Worker(double seconds, const std::atomic<int>& phase, const std::atomic<uint64_t>& measureStartNs,
         SpanBuffer* spans)
      : phase(phase), measureStartNs(measureStartNs), spans(spans), pass(seconds, 1),
        lastCommitNs(now_nanos()) {}

  const std::atomic<int>& phase;
  const std::atomic<uint64_t>& measureStartNs;
  SpanBuffer* spans;
  Pass pass;
  bool audit = false;
  int64_t seen = 0;
  uint64_t lastCommitNs;
  uint64_t op = 0;
  uint64_t audits = 0;
  uint64_t badAudits = 0;

  // Latency of an operation runs from the previous commit of this
  // thread to its own commit, so it includes every aborted attempt.
  void committed() {
    const uint64_t now = now_nanos();
    if (phase.load() == kMeasure) {
      const uint64_t start = measureStartNs.load();
      if (Window* w = now >= start ? pass.window_at(static_cast<double>(now - start) / 1e9)
                                   : nullptr) {
        if (w->completed++ % kLatencySampleEvery == 0)
          w->latencyMs[0].push_back(static_cast<double>(now - lastCommitNs) / 1e6);
        pass.attempted++;
      }
    }
    if (audit) {
      audits++;
      if (seen != kTotal) badAudits++;
    }
    if (spans)
      spans->add(audit ? "bank.audit" : "bank.transfer", lastCommitNs, now, spans->next_id(),
                 0, op);
    op++;
    lastCommitNs = now;
  }
};

class BankWorkload final : public Workload {
 public:
  BankWorkload(uint64_t seed, bool smoke) : seed_(seed), smoke_(smoke) {}

  void setup() override {
    run_sbd([this] {
      auto arr = runtime::RefArray<BenchAccount>::make(kAccounts);
      for (uint64_t i = 0; i < kAccounts; i++) {
        BenchAccount a = BenchAccount::alloc();
        a.init_balance(kBalance);
        arr.init_set(i, a);
      }
      accounts_.set(arr);
    });
  }

  Pass run(bool warm, double seconds, SpanLog* spans, Checks& checks, Metrics&) override {
    phase_.store(kWarm);
    std::vector<std::unique_ptr<Worker>> workers;
    std::vector<SbdThread> threads;
    const uint64_t pass = passes_++;
    for (int t = 0; t < kThreads; t++) {
      workers.push_back(std::make_unique<Worker>(seconds, phase_, measureStartNs_,
                                                 spans ? spans->buffer() : nullptr));
      Worker* w = workers.back().get();
      const uint64_t rngSeed = mix64(seed_ * 0x9E3779B97F4A7C15ULL + pass * kThreads +
                                     static_cast<uint64_t>(t));
      threads.emplace_back([this, w, rngSeed] { body(*w, rngSeed); });
    }
    // One CPU per worker, away from the main thread's (see placement.h).
    const std::set<long> before = thread_ids();
    for (auto& t : threads) t.start();
    const std::vector<int> cpus = allowed_cpus();
    if (cpus.size() > threads.size())
      pin_threads_since(before, std::vector<int>(cpus.end() - kThreads, cpus.end()));
    if (warm)
      std::this_thread::sleep_for(std::chrono::duration<double>(smoke_ ? kSmokeWarmupS : kWarmupS));
    measureStartNs_.store(now_nanos());
    phase_.store(kMeasure);
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    phase_.store(kStop);
    for (auto& t : threads) t.join();

    Pass out(seconds, 1);
    uint64_t audits = 0, badAudits = 0;
    for (const auto& w : workers) {
      out.merge(w->pass);
      audits += w->audits;
      badAudits += w->badAudits;
    }
    checks.expect(audits > 0, "no audit ran");
    checks.expect(badAudits == 0, std::to_string(badAudits) + " of " + std::to_string(audits) +
                                      " audits saw a total other than " +
                                      std::to_string(kTotal));
    return out;
  }

  void finish(Checks& checks) override {
    int64_t total = 0;
    run_sbd([&] {
      for (uint64_t i = 0; i < kAccounts; i++) total += accounts_.get().get(i).balance();
    });
    checks.expect(total == kTotal, "final total " + std::to_string(total) + " != " +
                                       std::to_string(kTotal));
  }

  Constants constants() const override {
    return {{"accounts", std::to_string(kAccounts)},
            {"balance", std::to_string(kBalance)},
            {"threads", std::to_string(kThreads)},
            {"audit_pct", std::to_string(kAuditPct)},
            {"latency_sample_every", std::to_string(kLatencySampleEvery)},
            {"warmup_s", std::to_string(smoke_ ? kSmokeWarmupS : kWarmupS)}};
  }

  bool latency_bound() const override { return false; }

 private:
  // The rng lives on the section's stack, so a restarted section draws
  // the same operation again.
  void body(Worker& w, uint64_t rngSeed) {
    auto& tc = context();
    Rng rng(rngSeed);
    const auto accounts = accounts_.get();
    while (phase_.load(std::memory_order_relaxed) != kStop) {
      if (rng.below(100) < kAuditPct) {
        int64_t sum = 0;
        for (uint64_t i = 0; i < kAccounts; i++) sum += accounts.get(tc, i).balance(tc);
        w.audit = true;
        w.seen = sum;
      } else {
        const uint64_t a = rng.below(kAccounts);
        uint64_t b = rng.below(kAccounts - 1);
        if (b >= a) b++;
        BenchAccount from = accounts.get(tc, a);
        BenchAccount to = accounts.get(tc, b);
        const int64_t fromBalance = from.balance(tc);
        if (fromBalance >= 1) {
          from.set_balance(tc, fromBalance - 1);
          to.set_balance(tc, to.balance(tc) + 1);
        }
        w.audit = false;
      }
      Worker* pw = &w;
      on_commit([pw] { pw->committed(); });
      split(tc);
    }
  }

  uint64_t seed_;
  bool smoke_;
  uint64_t passes_ = 0;
  std::atomic<int> phase_{kStop};
  std::atomic<uint64_t> measureStartNs_{0};
  runtime::GlobalRoot<runtime::RefArray<BenchAccount>> accounts_;
};

}  // namespace

std::unique_ptr<Workload> make_bank_workload(const std::string& name, uint64_t seed,
                                             bool smoke) {
  if (name != "bank-audit") return nullptr;
  return std::make_unique<BankWorkload>(seed, smoke);
}

}  // namespace sbd::bench
