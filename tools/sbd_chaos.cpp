// sbd_chaos — randomized robustness driver for the SBD runtime.
//
// Each seeded run installs a fault plan with EVERY injection site armed
// (CAS failures, queue delays, forced GCs, transient I/O errors, short
// writes, socket resets, DB commit faults, spurious DB lock timeouts,
// split-aborts) and then hammers three substrates with multi-threaded
// workloads:
//
//   bank  — random transfers over a managed account array, with a
//           per-thread transactional audit file (tio::TxFileWriter):
//           invariants are conservation of money AND one audit line per
//           committed transfer (aborted sections must leave no trace).
//   queue — producers/consumers over jcl::MTaskQueue with managed
//           boxed values: invariant is produced == consumed + drained.
//   db    — row-to-row transfers through db::TxDbConnection: invariant
//           is SELECT SUM(balance) unchanged.
//
// The liveness watchdog runs throughout. On any invariant violation the
// driver prints the exact reproducing command line and exits nonzero;
// otherwise it prints per-site fired/evaluated counts per seed.
//
// Two oracle-backed modes ride on top:
//
//   --oracle        records the full lock trace (obs::set_full_trace +
//                   lossless rings, drained concurrently by a non-SBD
//                   collector thread) and replays it through the
//                   sbd::oracle happens-before checker after each seed.
//                   Violations print the offending event windows, write
//                   artifacts to $SBD_ORACLE_ARTIFACT_DIR when set, and
//                   fail the run.
//   --differential  re-executes the SAME seed as three child processes,
//                   one per lock-granularity mode (field, object,
//                   versioned — granularity is parsed once per
//                   process, hence processes), each with --oracle, and
//                   requires every child to pass its oracle AND all three
//                   invariant checksums to match.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "analyzer/oracle.h"
#include "api/sbd.h"
#include "common/rng.h"
#include "core/fault.h"
#include "core/obs.h"
#include "core/transaction.h"
#include "core/watchdog.h"
#include "db/db.h"
#include "db/txwrapper.h"
#include "jcl/collections.h"
#include "tio/file.h"

using namespace sbd;

namespace {

struct Config {
  int seeds = 10;           // number of consecutive seeds to run
  uint64_t firstSeed = 1;   // --seed S runs exactly seed S
  bool oneSeed = false;
  int threads = 4;
  int transfers = 120;      // bank transfers per thread
  int queueOps = 120;       // items produced per producer
  int dbTxns = 50;          // DB transactions per thread
  double rate = 0.05;       // per-site fire probability
  int onlySite = -1;        // --site N arms just one site (debugging aid)
  uint64_t delayNanos = 20'000;
  bool small = false;
  bool oracle = false;        // full-trace + happens-before check per seed
  bool differential = false;  // 3 granularity modes as child processes
  std::string emitPath;       // child->parent result file (--differential)
  std::string traceOut;       // also dump the raw trace here (--oracle)
};

// The per-seed invariant quantities every granularity mode must agree
// on. Only interleaving-INDEPENDENT values qualify: conserved totals,
// not per-account balances (those legitimately differ run to run).
struct Sums {
  int64_t bankTotal = 0;   // sum of all account balances after the run
  int64_t auditLines = 0;  // total committed audit lines across threads
  int64_t queueDelta = 0;  // produced - consumed - drained (must be 0)
  int64_t dbSum = 0;       // SELECT SUM(balance)
  uint64_t checksum() const {
    uint64_t h = 0x5bd0c4a05ull;
    h = mix64(h ^ static_cast<uint64_t>(bankTotal));
    h = mix64(h ^ static_cast<uint64_t>(auditLines));
    h = mix64(h ^ static_cast<uint64_t>(queueDelta));
    h = mix64(h ^ static_cast<uint64_t>(dbSum));
    return h;
  }
};

// Drains the obs rings concurrently with the workload on a plain
// (non-SBD) thread — the progress guarantee lossless mode depends on.
class TraceCollector {
 public:
  void start() {
    droppedBefore_ = obs::dropped();
    stop_.store(false, std::memory_order_relaxed);
    th_ = std::thread([this] {
      while (!stop_.load(std::memory_order_acquire)) {
        drain_once();
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      drain_once();  // workers have joined: this sweep is complete
    });
  }
  void finish() {
    stop_.store(true, std::memory_order_release);
    th_.join();
  }
  uint64_t dropped_delta() const { return obs::dropped() - droppedBefore_; }

  std::vector<obs::Event> events;

 private:
  void drain_once() {
    std::vector<obs::Event> batch = obs::drain();
    events.insert(events.end(), batch.begin(), batch.end());
  }
  std::thread th_;
  std::atomic<bool> stop_{false};
  uint64_t droppedBefore_ = 0;
};

class Account : public runtime::TypedRef<Account> {
 public:
  SBD_CLASS(ChaosAccount, SBD_SLOT("balance"))
  SBD_FIELD_I64(0, balance)
};

std::string tmp_path(uint64_t seed, int tid) {
  return "/tmp/sbd_chaos_" + std::to_string(getpid()) + "_" +
         std::to_string(seed) + "_" + std::to_string(tid) + ".audit";
}

int count_lines(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return -1;
  int lines = 0;
  int c;
  while ((c = std::fgetc(f)) != EOF)
    if (c == '\n') lines++;
  std::fclose(f);
  return lines;
}

// --------------------------------------------------------------------------
// bank: conservation of money + exactly one audit line per transfer.
// --------------------------------------------------------------------------
bool run_bank(const Config& cfg, uint64_t seed, Sums& sums) {
  constexpr int kAccounts = 16;
  constexpr int64_t kInitial = 1000;

  runtime::GlobalRoot<runtime::RefArray<Account>> accounts;
  run_sbd([&] {
    auto arr = runtime::RefArray<Account>::make(kAccounts);
    for (int i = 0; i < kAccounts; i++) {
      Account a = Account::alloc();
      a.init_balance(kInitial);
      arr.init_set(static_cast<uint64_t>(i), a);
    }
    accounts.set(arr);
  });

  // One transactional audit writer per thread, off-stack: the defer
  // buffer must survive checkpoint restores, and a writer shared across
  // threads would interleave (and abort-clear) a common buffer. Opened
  // HERE, outside any section: an open inside the worker's first
  // section would be re-executed on every injected abort, leaking one
  // fd per retry (restore-leak semantics) until EMFILE at high rates.
  std::vector<tio::TxFileWriter*> writers(static_cast<size_t>(cfg.threads), nullptr);
  for (int t = 0; t < cfg.threads; t++)
    writers[static_cast<size_t>(t)] = new tio::TxFileWriter(tmp_path(seed, t));
  {
    std::vector<SbdThread> ts;
    for (int t = 0; t < cfg.threads; t++) {
      ts.emplace_back([&, t] {
        tio::TxFileWriter* audit = writers[static_cast<size_t>(t)];
        Rng rng(mix64(seed ^ (0xba9c0ull + static_cast<uint64_t>(t))));
        for (int i = 0; i < cfg.transfers; i++) {
          const auto from = rng.below(kAccounts);
          uint64_t to = rng.below(kAccounts);
          if (to == from) to = (to + 1) % kAccounts;
          const int64_t amount = 1 + static_cast<int64_t>(rng.below(20));
          Account a = accounts.get().get(from);
          Account b = accounts.get().get(to);
          if (a.balance() >= amount) {
            a.set_balance(a.balance() - amount);
            b.set_balance(b.balance() + amount);
          }
          char line[64];
          const int n = std::snprintf(line, sizeof line, "%d %" PRIu64 " %" PRIu64 "\n",
                                      i, from, to);
          audit->write(line, static_cast<size_t>(n));
          split();  // one transfer (and one audit line) per section
        }
      });
    }
    for (auto& t : ts) t.start();
    for (auto& t : ts) t.join();
  }

  bool ok = true;
  run_sbd([&] {
    int64_t total = 0;
    for (int i = 0; i < kAccounts; i++)
      total += accounts.get().get(static_cast<uint64_t>(i)).balance();
    sums.bankTotal = total;
    if (total != kAccounts * kInitial) {
      std::fprintf(stderr, "bank: money not conserved: %lld != %lld\n",
                   static_cast<long long>(total),
                   static_cast<long long>(kAccounts * kInitial));
      ok = false;
    }
  });
  for (int t = 0; t < cfg.threads; t++) {
    delete writers[static_cast<size_t>(t)];  // flush + close
    const std::string path = tmp_path(seed, t);
    const int lines = count_lines(path);
    sums.auditLines += lines;
    if (lines != cfg.transfers) {
      std::fprintf(stderr,
                   "bank: audit file %s has %d lines, expected %d "
                   "(aborted sections leaked or commits lost writes)\n",
                   path.c_str(), lines, cfg.transfers);
      ok = false;
    }
    ::unlink(path.c_str());
  }
  return ok;
}

// --------------------------------------------------------------------------
// queue: produced == consumed + drained over jcl::MTaskQueue.
// --------------------------------------------------------------------------
bool run_queue(const Config& cfg, uint64_t seed, Sums& sums) {
  const int producers = cfg.threads / 2 > 0 ? cfg.threads / 2 : 1;
  const int consumers = producers;

  runtime::GlobalRoot<jcl::MTaskQueue> queue;
  runtime::GlobalRoot<runtime::I64Array> produced;  // one slot per producer
  runtime::GlobalRoot<runtime::I64Array> consumed;  // one slot per consumer
  runtime::GlobalRoot<runtime::I64Array> done;      // [0] = producers finished
  run_sbd([&] {
    queue.set(jcl::MTaskQueue::make(32, /*useEmptyFlag=*/true));
    produced.set(runtime::I64Array::make(static_cast<uint64_t>(producers)));
    consumed.set(runtime::I64Array::make(static_cast<uint64_t>(consumers)));
    done.set(runtime::I64Array::make(1));
  });

  std::vector<SbdThread> pts;
  std::vector<SbdThread> cts;
  for (int t = 0; t < producers; t++) {
    pts.emplace_back([&, t] {
      Rng rng(mix64(seed ^ (0x90d0ull + static_cast<uint64_t>(t))));
      int sent = 0;
      while (sent < cfg.queueOps) {
        const int64_t v = 1 + static_cast<int64_t>(rng.below(100));
        auto item = runtime::I64Array::make(1);
        item.set(0, v);
        if (queue.get().put(item.raw())) {
          const auto slot = static_cast<uint64_t>(t);
          produced.get().set(slot, produced.get().get(slot) + v);
          sent++;
        }
        split();  // full queue: commit and retry in a fresh section
      }
    });
  }
  for (int t = 0; t < consumers; t++) {
    cts.emplace_back([&, t] {
      for (;;) {
        runtime::ManagedObject* raw = queue.get().take();
        if (!raw) {
          const bool finished = done.get().get(0) != 0 && queue.get().empty_check();
          split();
          if (finished) break;
          continue;
        }
        const int64_t v = runtime::I64Array(raw).get(0);
        const auto slot = static_cast<uint64_t>(t);
        consumed.get().set(slot, consumed.get().get(slot) + v);
        split();
      }
    });
  }
  for (auto& t : pts) t.start();
  for (auto& t : cts) t.start();
  for (auto& t : pts) t.join();
  run_sbd([&] { done.get().set(0, 1); });
  for (auto& t : cts) t.join();

  bool ok = true;
  run_sbd([&] {
    int64_t in = 0, out = 0, left = 0;
    for (int t = 0; t < producers; t++) in += produced.get().get(static_cast<uint64_t>(t));
    for (int t = 0; t < consumers; t++) out += consumed.get().get(static_cast<uint64_t>(t));
    while (runtime::ManagedObject* raw = queue.get().take())
      left += runtime::I64Array(raw).get(0);
    sums.queueDelta = in - out - left;
    if (in != out + left) {
      std::fprintf(stderr, "queue: produced %lld != consumed %lld + drained %lld\n",
                   static_cast<long long>(in), static_cast<long long>(out),
                   static_cast<long long>(left));
      ok = false;
    }
  });
  return ok;
}

// --------------------------------------------------------------------------
// db: SELECT SUM(balance) unchanged by concurrent row-to-row transfers.
// --------------------------------------------------------------------------

// One transfer in a helper so the ResultSet locals (non-trivially
// destructible) are gone before split() takes the next checkpoint —
// restore safety demands that nothing owning heap memory crosses a
// split on the stack.
void db_transfer(db::TxDbConnection& conn, int64_t from, int64_t to, int64_t amount) {
  auto rs = conn.execute("SELECT balance FROM accounts WHERE id = ?", {db::Value{from}});
  const int64_t bal = rs.int_at(0, 0);
  if (bal < amount) return;
  conn.execute("UPDATE accounts SET balance = ? WHERE id = ?",
               {db::Value{bal - amount}, db::Value{from}});
  auto rt = conn.execute("SELECT balance FROM accounts WHERE id = ?", {db::Value{to}});
  conn.execute("UPDATE accounts SET balance = ? WHERE id = ?",
               {db::Value{rt.int_at(0, 0) + amount}, db::Value{to}});
}

bool run_db(const Config& cfg, uint64_t seed, Sums& sums) {
  constexpr int64_t kRows = 16;
  constexpr int64_t kInitial = 100;

  db::Database database;
  {
    // Setup runs on a raw auto-commit connection with no section to
    // retry into, so spurious lock timeouts must stay off here.
    fault::PlanScope quiet{fault::FaultPlan{}};
    auto c = database.connect();
    c->execute("CREATE TABLE accounts (id INT PRIMARY KEY, balance INT)");
    for (int64_t i = 0; i < kRows; i++)
      c->execute("INSERT INTO accounts VALUES (?, ?)", {i, kInitial});
  }

  {
    std::vector<SbdThread> ts;
    for (int t = 0; t < cfg.threads; t++) {
      ts.emplace_back([&, t] {
        db::TxDbConnection conn(database);
        Rng rng(mix64(seed ^ (0xdb00ull + static_cast<uint64_t>(t))));
        for (int i = 0; i < cfg.dbTxns; i++) {
          const auto from = static_cast<int64_t>(rng.below(kRows));
          int64_t to = static_cast<int64_t>(rng.below(kRows));
          if (to == from) to = (to + 1) % kRows;
          const int64_t amount = 1 + static_cast<int64_t>(rng.below(10));
          db_transfer(conn, from, to, amount);
          split();  // section end = DB commit
        }
      });
    }
    for (auto& t : ts) t.start();
    for (auto& t : ts) t.join();
  }

  fault::PlanScope quiet{fault::FaultPlan{}};
  auto c = database.connect();
  const int64_t sum = c->execute("SELECT SUM(balance) FROM accounts").int_at(0, 0);
  sums.dbSum = sum;
  if (sum != kRows * kInitial) {
    std::fprintf(stderr, "db: balance not conserved: %lld != %lld\n",
                 static_cast<long long>(sum),
                 static_cast<long long>(kRows * kInitial));
    return false;
  }
  return true;
}

// --------------------------------------------------------------------------

// Dumps the evidence of an oracle red: the raw trace plus the rendered
// violation windows, under $SBD_ORACLE_ARTIFACT_DIR (CI uploads it).
void write_oracle_artifacts(uint64_t seed, const std::vector<obs::Event>& events,
                            uint64_t dropped, const std::vector<oracle::Rec>& recs,
                            const oracle::Report& rep) {
  const char* dir = std::getenv("SBD_ORACLE_ARTIFACT_DIR");
  if (!dir || !*dir) return;
  ::mkdir(dir, 0777);  // best effort; may already exist
  const char* mode = std::getenv("SBD_LOCK_GRANULARITY");
  std::string tag = mode ? mode : "default";
  for (char& c : tag)
    if (c == ':' || c == '/') c = '_';
  const std::string base =
      std::string(dir) + "/seed" + std::to_string(seed) + "_" + tag;
  obs::write_trace(base + ".trace", events, dropped);
  if (std::FILE* f = std::fopen((base + ".violations.txt").c_str(), "w")) {
    std::fputs(oracle::summary_line(rep).c_str(), f);
    std::fputs("\n", f);
    std::fputs(oracle::format_windows(recs, rep).c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "oracle: artifacts written to %s.{trace,violations.txt}\n",
                 base.c_str());
  }
}

bool run_one_seed(const Config& cfg, uint64_t seed, Sums& sums,
                  uint64_t& oracleViolations, uint64_t& traceDropped) {
  fault::FaultPlan plan;
  plan.seed = mix64(0xc4a05ull ^ seed);
  plan.delayNanos = cfg.delayNanos;
  for (int i = 0; i < fault::kNumSites; i++)
    if (cfg.onlySite < 0 || cfg.onlySite == i) plan.rate[i] = cfg.rate;
  fault::set_plan(plan);

  TraceCollector collector;
  if (cfg.oracle) {
    // Lossless full trace: the oracle's verdict is only meaningful on a
    // complete event stream, so overflowing producers block (briefly —
    // the collector drains every millisecond) instead of dropping.
    obs::set_full_trace(true);
    obs::set_lossless(true);
    collector.start();
  }

  const auto before = core::TxnManager::instance().snapshot_stats();
  bool ok = run_bank(cfg, seed, sums) && run_queue(cfg, seed, sums) &&
            run_db(cfg, seed, sums);
  const auto stats = core::TxnManager::instance().snapshot_stats().diff(before);

  if (cfg.oracle) {
    collector.finish();
    obs::set_lossless(false);
    obs::set_full_trace(false);
    traceDropped = collector.dropped_delta();
    const std::vector<oracle::Rec> recs = oracle::from_obs(collector.events);
    const oracle::Report rep = oracle::check(recs, traceDropped);
    oracleViolations = rep.violations.size();
    std::printf("  %s\n", oracle::summary_line(rep).c_str());
    if (!cfg.traceOut.empty() &&
        !obs::write_trace(cfg.traceOut, collector.events, traceDropped))
      std::fprintf(stderr, "oracle: cannot write trace to %s\n",
                   cfg.traceOut.c_str());
    if (!rep.ok()) {
      std::fputs(oracle::format_windows(recs, rep).c_str(), stderr);
      write_oracle_artifacts(seed, collector.events, traceDropped, recs, rep);
      ok = false;
    }
  }

  std::printf("seed %" PRIu64 ": %s  commits=%llu aborts=%llu deadlocks=%llu\n",
              seed, ok ? "OK" : "FAIL",
              static_cast<unsigned long long>(stats.commits),
              static_cast<unsigned long long>(stats.aborts),
              static_cast<unsigned long long>(stats.deadlocksResolved));
  std::printf("  sites:");
  for (int i = 0; i < fault::kNumSites; i++) {
    const auto s = static_cast<fault::Site>(i);
    std::printf(" %s=%" PRIu64 "/%" PRIu64, fault::site_name(s), fault::fired(s),
                fault::evaluated(s));
  }
  std::printf("\n");
  fault::clear_plan();
  return ok;
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--seeds N] [--seed S] [--rate R(0..1)] [--threads T]\n"
               "          [--site I(0..%d)] [--delay-ns D] [--small]\n"
               "          [--oracle] [--trace-out FILE] [--emit FILE]\n"
               "          [--differential]\n",
               argv0, fault::kNumSites - 1);
  return 2;
}

// ---------------------------------------------------------------------------
// Differential mode (parent): one child process per granularity mode —
// SBD_LOCK_GRANULARITY is parsed once per process, so differing modes
// require differing processes. Each child runs the same seed with
// --oracle and reports its invariant checksum through --emit.
// ---------------------------------------------------------------------------

const char* kDiffModes[] = {"field", "object", "versioned"};

std::string self_exe(const char* argv0) {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof buf - 1);
  if (n <= 0) return argv0;
  buf[n] = '\0';
  return buf;
}

bool run_differential_seed(const Config& cfg, const char* argv0, uint64_t seed) {
  const std::string self = self_exe(argv0);
  struct ChildResult {
    std::string mode;
    std::string cmd;
    int rc = -1;
    bool parsed = false;
    uint64_t checksum = 0, violations = 0, recorded = 0, dropped = 0;
  };
  std::vector<ChildResult> results;
  for (size_t m = 0; m < sizeof kDiffModes / sizeof kDiffModes[0]; m++) {
    ChildResult r;
    r.mode = kDiffModes[m];
    const std::string emit = "/tmp/sbd_diff_" + std::to_string(getpid()) + "_" +
                             std::to_string(seed) + "_" + std::to_string(m) + ".emit";
    ::unlink(emit.c_str());
    r.cmd = "SBD_LOCK_GRANULARITY=" + r.mode + " '" + self + "' --seed " +
            std::to_string(seed) + (cfg.small ? " --small" : "") + " --threads " +
            std::to_string(cfg.threads) + " --rate " + std::to_string(cfg.rate) +
            " --delay-ns " + std::to_string(cfg.delayNanos) +
            " --oracle --emit '" + emit + "'";
    std::printf("differential seed %" PRIu64 " mode %-10s ...\n", seed,
                r.mode.c_str());
    std::fflush(stdout);
    r.rc = std::system(r.cmd.c_str());
    if (std::FILE* f = std::fopen(emit.c_str(), "r")) {
      unsigned long long ck = 0, vi = 0, re = 0, dr = 0;
      r.parsed = std::fscanf(f, "checksum=%llx violations=%llu recorded=%llu dropped=%llu",
                             &ck, &vi, &re, &dr) == 4;
      r.checksum = ck;
      r.violations = vi;
      r.recorded = re;
      r.dropped = dr;
      std::fclose(f);
    }
    ::unlink(emit.c_str());
    results.push_back(std::move(r));
  }

  bool ok = true;
  for (const ChildResult& r : results) {
    std::printf("  mode %-10s rc=%-3d checksum=%016llx violations=%llu "
                "recorded=%llu dropped=%llu\n",
                r.mode.c_str(), r.rc,
                static_cast<unsigned long long>(r.checksum),
                static_cast<unsigned long long>(r.violations),
                static_cast<unsigned long long>(r.recorded),
                static_cast<unsigned long long>(r.dropped));
    if (r.rc != 0 || !r.parsed || r.violations != 0) ok = false;
    if (r.checksum != results[0].checksum) ok = false;
  }
  if (!ok) {
    std::fprintf(stderr,
                 "differential: seed %" PRIu64 " DIVERGED — reproduce each mode with:\n",
                 seed);
    for (const ChildResult& r : results)
      std::fprintf(stderr, "  %s\n", r.cmd.c_str());
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i < argc; i++) {
    const std::string a = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (a == "--seeds") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cfg.seeds = std::atoi(v);
    } else if (a == "--seed") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cfg.firstSeed = std::strtoull(v, nullptr, 10);
      cfg.oneSeed = true;
    } else if (a == "--rate") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      char* end = nullptr;
      cfg.rate = std::strtod(v, &end);
      if (end == v || *end != '\0') return usage(argv[0]);
    } else if (a == "--threads") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cfg.threads = std::atoi(v);
    } else if (a == "--site") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cfg.onlySite = std::atoi(v);
    } else if (a == "--delay-ns") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cfg.delayNanos = std::strtoull(v, nullptr, 10);
    } else if (a == "--small") {
      cfg.small = true;
      cfg.threads = 2;
      cfg.transfers = 40;
      cfg.queueOps = 40;
      cfg.dbTxns = 20;
    } else if (a == "--oracle") {
      cfg.oracle = true;
    } else if (a == "--differential") {
      cfg.differential = true;
    } else if (a == "--emit") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cfg.emitPath = v;
    } else if (a == "--trace-out") {
      const char* v = next();
      if (!v) return usage(argv[0]);
      cfg.traceOut = v;
    } else {
      return usage(argv[0]);
    }
  }
  if (cfg.seeds < 1 || cfg.threads < 1 || cfg.rate < 0 || cfg.rate > 1 ||
      cfg.onlySite < -1 || cfg.onlySite >= fault::kNumSites)
    return usage(argv[0]);

  if (cfg.differential) {
    // Pure parent: the workloads run in the children (one process per
    // granularity mode); no SBD attach here.
    const int n = cfg.oneSeed ? 1 : cfg.seeds;
    for (int k = 0; k < n; k++) {
      const uint64_t seed =
          cfg.oneSeed ? cfg.firstSeed : cfg.firstSeed + static_cast<uint64_t>(k);
      if (!run_differential_seed(cfg, argv[0], seed)) return 1;
    }
    std::printf("differential: %d seed(s) x %zu mode(s) OK\n", n,
                sizeof kDiffModes / sizeof kDiffModes[0]);
    return 0;
  }

  SBD_ATTACH_THREAD();
  // Tracing stays on for the whole run: chaos doubles as the proof that
  // the lock-free record path survives every injected fault.
  obs::set_enabled(true);
  core::Watchdog::Options wo;
  wo.stallThresholdNanos = 2'000'000'000;
  wo.abortVictimAfterNanos = 8'000'000'000;
  core::Watchdog::start(wo);

  const uint64_t recordedBefore = obs::recorded();
  Sums sums;
  uint64_t oracleViolations = 0, traceDropped = 0;
  const int n = cfg.oneSeed ? 1 : cfg.seeds;
  bool failed = false;
  for (int k = 0; k < n; k++) {
    const uint64_t seed = cfg.oneSeed ? cfg.firstSeed : cfg.firstSeed + static_cast<uint64_t>(k);
    sums = Sums{};
    if (!run_one_seed(cfg, seed, sums, oracleViolations, traceDropped)) {
      std::fprintf(stderr, "chaos: FAILED — reproduce with: %s --seed %" PRIu64
                           " --rate %g --threads %d%s%s\n",
                   argv[0], seed, cfg.rate, cfg.threads,
                   cfg.small ? " --small" : "", cfg.oracle ? " --oracle" : "");
      failed = true;
      break;
    }
  }
  // The emit file reports the LAST seed run (children run exactly one),
  // success or failure — the differential parent reads it either way.
  if (!cfg.emitPath.empty()) {
    if (std::FILE* f = std::fopen(cfg.emitPath.c_str(), "w")) {
      std::fprintf(f, "checksum=%016llx violations=%llu recorded=%llu dropped=%llu\n",
                   static_cast<unsigned long long>(sums.checksum()),
                   static_cast<unsigned long long>(oracleViolations),
                   static_cast<unsigned long long>(obs::recorded() - recordedBefore),
                   static_cast<unsigned long long>(traceDropped));
      std::fclose(f);
    } else {
      std::fprintf(stderr, "chaos: cannot write emit file %s\n", cfg.emitPath.c_str());
      failed = true;
    }
  }
  if (failed) {
    core::Watchdog::stop();
    return 1;
  }
  std::printf("chaos: %d seed(s) OK (rate %g, %d threads; watchdog stalls=%" PRIu64
              " victims=%" PRIu64 ")\n",
              n, cfg.rate, cfg.threads, core::Watchdog::stalls_detected(),
              core::Watchdog::victims_aborted());
  std::printf("trace: recorded=%" PRIu64 " dropped=%" PRIu64 "\n", obs::recorded(),
              obs::dropped());
  const std::string hot = obs::hot_report(5);
  if (!hot.empty()) std::printf("%s\n", hot.c_str());
  obs::export_metrics_if_requested();  // honors SBD_METRICS_JSON
  core::Watchdog::stop();
  return 0;
}
