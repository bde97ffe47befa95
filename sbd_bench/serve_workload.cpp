// serve-kv and serve-txfer: HTTP requests through sbd::serve over sbd::db.
//
// serve-kv is the common request path at a fixed open-loop rate with
// almost no conflicts and a key table larger than the per-core caches.
// serve-txfer is the same path driven closed-loop by writers that
// conflict on 16 account rows, so it exercises db row-lock waits, core
// aborts and restarts, and TxSocket replay. It is closed-loop because
// an open loop at this contention builds a backlog that keeps growing.
#include <algorithm>
#include <chrono>
#include <cstring>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "db/db.h"
#include "layers.h"
#include "loadgen.h"
#include "net/http.h"
#include "placement.h"
#include "serve/serve.h"
#include "stats.h"
#include "workload.h"

namespace sbd::bench {

namespace {

struct ServeParams {
  const char* name;
  double rate;  // open-loop requests per second; 0 = closed loop
  int getPct;
  int putPct;   // the rest are transfers
  uint32_t keys;
  uint32_t smokeKeys;
  double churn;  // probability of reconnecting after a request
};

// serve-txfer keeps its connections: each connection's pipes stay
// allocated for the life of the process, so churn under a closed loop
// would make memory grow with throughput.
const ServeParams kServeKv{"serve-kv", 30000, 90, 10, 100000, 10000, 0.01};
const ServeParams kServeTxfer{"serve-txfer", 0, 10, 10, 1000, 1000, 0};

constexpr int kConnections = 2;
constexpr int kWorkers = 2;
constexpr double kZipfTheta = 0.99;
constexpr int kAccounts = 16;
constexpr int64_t kBalance = 1000;
constexpr double kWarmupS = 3;
constexpr double kSmokeWarmupS = 0.2;
constexpr int kPort = 8190;
// Requests of the workload's stream serialized and parsed from memory,
// and statements per endpoint replayed through db::Connection, in the
// traced pass.
constexpr size_t kReplayRequests = 20000;
constexpr size_t kReplayStatements = 5000;
constexpr const char* kPreloadValue = "init";

int64_t key_of(const std::string& path) { return std::stoll(path.substr(4)); }

class ServeWorkload final : public Workload {
 public:
  ServeWorkload(const ServeParams& p, uint64_t seed, bool smoke)
      : p_(p), seed_(seed), smoke_(smoke), keys_(smoke ? p.smokeKeys : p.keys),
        zipf_(keys_, kZipfTheta) {
    // Clients and server on disjoint CPUs (see placement.h).
    const std::vector<int> cpus = allowed_cpus();
    if (cpus.size() >= static_cast<size_t>(kConnections) + 2) {
      clientCpus_.assign(cpus.begin(), cpus.begin() + kConnections);
      serverCpus_.assign(cpus.begin() + kConnections, cpus.end());
    }
  }

  void setup() override {
    db_ = std::make_unique<db::Database>();
    serve::ensure_tables(*db_);
    {
      auto c = db_->connect();
      for (uint32_t k = 0; k < keys_; k++)
        c->execute("INSERT INTO kv VALUES (?, ?)",
                   {static_cast<int64_t>(k), std::string(kPreloadValue)});
    }
    serve::seed_accounts(*db_, kAccounts, kBalance);
    balanceBefore_ = serve::total_balance(*db_);
    lastPut_.assign(kConnections, std::vector<int64_t>(keys_, -1));
    serve::Config cfg;
    cfg.port = kPort;
    cfg.workers = kWorkers;
    server_ = std::make_unique<serve::Server>(*db_, cfg);
    const std::set<long> before = thread_ids();
    server_->start();
    pin_threads_since(before, serverCpus_);
  }

  Pass run(bool warm, double seconds, SpanLog* spans, Checks& checks,
           Metrics& layer) override {
    LoadConfig cfg;
    cfg.port = kPort;
    cfg.connections = kConnections;
    cfg.rate = p_.rate;
    cfg.warmupS = warm ? (smoke_ ? kSmokeWarmupS : kWarmupS) : 0;
    cfg.measureS = seconds;
    cfg.churn = p_.churn;
    cfg.seed = mix64(seed_ + passes_++);
    cfg.make = [this](int, uint64_t j, Rng& rng, net::HttpRequest& req) { make(j, rng, req); };
    cfg.check = [this](int conn, const net::HttpRequest& req, const net::HttpResponse& resp) {
      return check(conn, req, resp);
    };
    cfg.spans = spans;
    cfg.cpus = clientCpus_;

    SpanBuffer* mine = spans ? spans->buffer() : nullptr;
    const std::string before = serve_metrics(mine);
    LoadResult r = run_load(cfg);
    wait_for_idle_server(checks);
    const std::string after = serve_metrics(mine);
    auto delta = [&](const char* key) {
      return json_number(after, nullptr, key) - json_number(before, nullptr, key);
    };
    transportErrors_ += r.transportErrors;
    checks.expect(r.wrong == 0, std::to_string(r.wrong) + " wrong responses");
    checks.expect(delta("5xx") == 0,
                  std::to_string(static_cast<long long>(delta("5xx"))) + " 5xx responses");

    if (spans) {
      layer.set("loadgen.late_ms_p95", percentile(r.lateMs, 0.95), "ms");
      layer.set("loadgen.reconnects", static_cast<double>(r.reconnects), "count");
      layer.set("net.connect_us_p50", percentile(spans->durations_us("net.connect"), 0.5), "us");
      layer.set("net.write_us_p50", percentile(spans->durations_us("net.write"), 0.5), "us");
      const std::vector<double> wait = spans->durations_us("net.wait");
      layer.set("net.wait_us_p50", percentile(wait, 0.5), "us");
      layer.set("net.wait_us_p95", percentile(wait, 0.95), "us");
      const double requests =
          delta("get") + delta("put") + delta("txfer") + delta("other") + delta("bad");
      auto share = [&](double n) { return requests > 0 ? n / requests : 0; };
      layer.set("serve.aborts_per_request", share(delta("txnAborts")), "1/request");
      layer.set("serve.keepalive_reuse_share", share(delta("keepAliveReuses")), "ratio");
      layer.set("serve.resp_4xx_share", share(delta("4xx")), "ratio");
      replay(*spans, *mine, checks, layer);
    }
    return std::move(r.pass);
  }

  void finish(Checks& checks) override {
    const int64_t balance = serve::total_balance(*db_);
    checks.expect(balance == balanceBefore_,
                  "SUM(balance) " + std::to_string(balance) + " != " +
                      std::to_string(balanceBefore_));
    // A PUT whose response was lost may or may not have committed, so
    // the final values are only pinned down when no exchange failed.
    if (transportErrors_ > 0) return;
    auto c = db_->connect();
    uint64_t bad = 0;
    for (uint32_t k = 0; k < keys_; k++) {
      const auto rs = c->execute("SELECT v FROM kv WHERE k = ?", {static_cast<int64_t>(k)});
      std::vector<std::string> allowed;
      for (const auto& last : lastPut_)
        if (last[k] >= 0) allowed.push_back("v" + std::to_string(last[k]));
      if (allowed.empty()) allowed.push_back(kPreloadValue);
      if (rs.size() == 0 ||
          std::find(allowed.begin(), allowed.end(), rs.str_at(0, 0)) == allowed.end())
        bad++;
    }
    checks.expect(bad == 0, std::to_string(bad) +
                                " keys whose value is not the last acknowledged PUT");
  }

  Constants constants() const override {
    return {{"rate_req_per_s", p_.rate > 0 ? std::to_string(p_.rate) : "closed-loop"},
            {"mix_get_put_txfer", std::to_string(p_.getPct) + ":" + std::to_string(p_.putPct) +
                                      ":" + std::to_string(100 - p_.getPct - p_.putPct)},
            {"keys", std::to_string(keys_)},
            {"zipf_theta", std::to_string(kZipfTheta)},
            {"accounts", std::to_string(kAccounts)},
            {"balance", std::to_string(kBalance)},
            {"connections", std::to_string(kConnections)},
            {"workers", std::to_string(kWorkers)},
            {"churn", std::to_string(p_.churn)},
            {"warmup_s", std::to_string(smoke_ ? kSmokeWarmupS : kWarmupS)}};
  }

  bool latency_bound() const override { return p_.rate > 0; }

 private:
  void make(uint64_t j, Rng& rng, net::HttpRequest& req) const {
    const int pick = static_cast<int>(rng.below(100));
    if (pick < p_.getPct + p_.putPct) {
      const std::string key = std::to_string(zipf_.sample(rng.unit()));
      req.path = "/kv/" + key;
      if (pick < p_.getPct) {
        req.method = "GET";
      } else {
        req.method = "PUT";
        req.body = "v" + std::to_string(j);
      }
    } else {
      req.method = "POST";
      req.path = "/txfer";
      req.body = "from=" + std::to_string(rng.below(kAccounts)) +
                 "&to=" + std::to_string(rng.below(kAccounts)) + "&amount=1";
    }
  }

  // Every key is preloaded, so GET and PUT always find their row; a
  // transfer may be refused (409) but never misses an account.
  bool check(int conn, const net::HttpRequest& req, const net::HttpResponse& resp) {
    if (req.method == "GET")
      return resp.status == 200 && (resp.body == kPreloadValue ||
                                    (!resp.body.empty() && resp.body[0] == 'v'));
    if (req.method == "PUT") {
      if (resp.status != 200) return false;
      lastPut_[static_cast<size_t>(conn)][static_cast<size_t>(key_of(req.path))] =
          std::stoll(req.body.substr(1));
      return true;
    }
    return resp.status == 200 || resp.status == 409;
  }

  static std::string serve_metrics(SpanBuffer* buf) {
    ScopedSpan span(buf, "serve.metrics_section");
    return serve::metrics_section();
  }

  // The server retires a connection once it reads the client's EOF.
  static void wait_for_idle_server(Checks& checks) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(2);
    auto open = [] { return serve::counters().activeConnections.load(); };
    while (open() != 0 && std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    checks.expect(open() == 0,
                  std::to_string(open()) + " connections leaked after the clients hung up");
  }

  // net.replay_*: the workload's request stream serialized and parsed
  // from memory. db.*: each endpoint's statements replayed through
  // db::Connection::execute, leaving every row as it was found except
  // for conserving transfers.
  void replay(SpanLog& log, SpanBuffer& spans, Checks& checks, Metrics& layer) {
    Rng rng(mix64(seed_ ^ 0x7e91a5ULL));
    std::vector<net::HttpRequest> reqs(kReplayRequests);
    for (size_t j = 0; j < reqs.size(); j++) make(j, rng, reqs[j]);
    std::vector<std::string> wire(reqs.size());
    {
      ScopedSpan span(&spans, "net.replay_serialize");
      for (size_t j = 0; j < reqs.size(); j++) wire[j] = net::serialize(reqs[j]);
    }
    size_t mismatched = 0;
    {
      ScopedSpan span(&spans, "net.replay_parse");
      for (size_t j = 0; j < wire.size(); j++) {
        size_t pos = 0;
        auto readFn = [&](void* out, size_t n) {
          const size_t k = std::min(n, wire[j].size() - pos);
          std::memcpy(out, wire[j].data() + pos, k);
          pos += k;
          return k;
        };
        net::HttpRequest parsed;
        if (net::read_request_status(readFn, parsed) != net::ReadStatus::kOk ||
            parsed.method != reqs[j].method || parsed.path != reqs[j].path ||
            parsed.body != reqs[j].body)
          mismatched++;
      }
    }
    checks.expect(mismatched == 0,
                  std::to_string(mismatched) + " requests did not parse back to themselves");
    const double n = static_cast<double>(reqs.size());
    layer.set("net.replay_serialize_us", log.durations_us("net.replay_serialize").at(0) / n, "us");
    layer.set("net.replay_parse_us", log.durations_us("net.replay_parse").at(0) / n, "us");

    auto c = db_->connect();
    for (size_t i = 0; i < kReplayStatements; i++) {
      const int64_t k = zipf_.sample(rng.unit());
      {
        ScopedSpan span(&spans, "db.get");
        c->execute("SELECT v FROM kv WHERE k = ?", {k});
      }
      const auto cur = c->execute("SELECT v FROM kv WHERE k = ?", {k});
      {
        ScopedSpan span(&spans, "db.put");
        c->execute("UPDATE kv SET v = ? WHERE k = ?", {cur.rows.at(0)[0], k});
      }
      const int64_t from = static_cast<int64_t>(rng.below(kAccounts));
      const int64_t to = static_cast<int64_t>(rng.below(kAccounts));
      ScopedSpan span(&spans, "db.txfer");
      c->begin();
      const auto f = c->execute("SELECT balance FROM accounts WHERE id = ?", {from});
      const auto t = c->execute("SELECT balance FROM accounts WHERE id = ?", {to});
      if (from != to && f.int_at(0, 0) >= 1) {
        c->execute("UPDATE accounts SET balance = ? WHERE id = ?", {f.int_at(0, 0) - 1, from});
        c->execute("UPDATE accounts SET balance = ? WHERE id = ?", {t.int_at(0, 0) + 1, to});
      }
      c->commit();
    }
    layer.set("db.get_us", median(log.durations_us("db.get")), "us");
    layer.set("db.put_us", median(log.durations_us("db.put")), "us");
    layer.set("db.txfer_us", median(log.durations_us("db.txfer")), "us");
  }

  ServeParams p_;
  uint64_t seed_;
  bool smoke_;
  uint32_t keys_;
  ZipfCdf zipf_;
  uint64_t passes_ = 0;
  std::unique_ptr<db::Database> db_;
  std::unique_ptr<serve::Server> server_;
  int64_t balanceBefore_ = 0;
  // Per connection and key, the request number of the last PUT the
  // server acknowledged (-1: none). Each connection's thread writes
  // only its own row.
  std::vector<std::vector<int64_t>> lastPut_;
  uint64_t transportErrors_ = 0;
  std::vector<int> clientCpus_, serverCpus_;
};

}  // namespace

std::unique_ptr<Workload> make_serve_workload(const std::string& name, uint64_t seed,
                                              bool smoke) {
  for (const ServeParams* p : {&kServeKv, &kServeTxfer})
    if (name == p->name) return std::make_unique<ServeWorkload>(*p, seed, smoke);
  return nullptr;
}

}  // namespace sbd::bench
