// End-to-end tests for the sbd::serve scenario: keep-alive request
// sequences, concurrent clients with the conservation invariant,
// injected faults mid-flight, and drain-on-shutdown. Clients here are
// plain threads speaking HTTP over the loopback network, as
// sbd_bench's serve workloads do under load.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/fault.h"
#include "core/queue.h"
#include "db/db.h"
#include "net/http.h"
#include "net/loopback.h"
#include "serve/serve.h"

namespace sbd::serve {
namespace {

// Unique port per TEST: the loopback network and the serve counters are
// process-global, and tests in one binary share both.
std::atomic<int> gNextPort{9100};

struct Client {
  net::Socket sock;

  explicit Client(int port) : sock(net::Network::instance().connect(port, 2000)) {}

  // Sends one request; returns the response status, or -1 if the
  // connection died (reset/short write).
  int request(const std::string& method, const std::string& path,
              const std::string& body, std::string* out = nullptr) {
    net::HttpRequest req;
    req.method = method;
    req.path = path;
    req.body = body;
    sock.write(net::serialize(req));
    net::HttpResponse resp;
    auto readFn = [&](void* o, size_t n) { return sock.read(o, n); };
    if (net::read_response_status(readFn, resp) != net::ReadStatus::kOk) return -1;
    if (out) *out = resp.body;
    return resp.status;
  }

  void close() {
    sock.close();
    sock = net::Socket();
  }
};

struct ServerFixture {
  db::Database db;
  Config cfg;
  std::unique_ptr<Server> server;

  explicit ServerFixture(int workers = 4, int accounts = 16,
                         int64_t balance = 1000) {
    cfg.port = gNextPort.fetch_add(1);
    cfg.workers = workers;
    ensure_tables(db);
    if (accounts) seed_accounts(db, accounts, balance);
    server = std::make_unique<Server>(db, cfg);
    server->start();
  }
};

TEST(Serve, KeepAliveServesManyRequestsOnOneConnection) {
  ServerFixture f;
  Client c(f.cfg.port);
  std::string body;
  EXPECT_EQ(c.request("GET", "/kv/1", ""), 404);
  EXPECT_EQ(c.request("PUT", "/kv/1", "hello"), 201);
  EXPECT_EQ(c.request("GET", "/kv/1", "", &body), 200);
  EXPECT_EQ(body, "hello");
  EXPECT_EQ(c.request("PUT", "/kv/1", "bye"), 200);  // update, not create
  EXPECT_EQ(c.request("GET", "/kv/1", "", &body), 200);
  EXPECT_EQ(body, "bye");
  EXPECT_EQ(c.request("GET", "/nope", ""), 404);
  c.close();
  f.server->shutdown();
}

TEST(Serve, TxferMovesMoneyAndRejectsBadTransfers) {
  ServerFixture f;
  Client c(f.cfg.port);
  std::string body;
  EXPECT_EQ(c.request("POST", "/txfer", "from=0&to=1&amount=300"), 200);
  EXPECT_EQ(c.request("POST", "/txfer", "from=0&to=1&amount=800"), 409);  // only 700 left
  EXPECT_EQ(c.request("POST", "/txfer", "from=0&to=99&amount=1"), 404);  // no account 99
  EXPECT_EQ(c.request("POST", "/txfer", "from=0&to=1"), 400);            // missing field
  c.close();
  f.server->shutdown();
  EXPECT_EQ(total_balance(f.db), 16 * 1000);
}

TEST(Serve, MalformedContentLengthGets400AndConnectionClose) {
  // The acceptance criterion for the old std::stoul crash: hostile
  // framing answers 4xx and closes; the server keeps serving others.
  ServerFixture f;
  Client bad(f.cfg.port);
  bad.sock.write("POST /kv/1 HTTP/1.1\r\nContent-Length: banana\r\n\r\n");
  net::HttpResponse resp;
  auto readFn = [&](void* o, size_t n) { return bad.sock.read(o, n); };
  ASSERT_EQ(net::read_response_status(readFn, resp), net::ReadStatus::kOk);
  EXPECT_EQ(resp.status, 400);
  char one;
  EXPECT_EQ(bad.sock.read(&one, 1), 0u);  // server closed the connection
  bad.close();

  Client good(f.cfg.port);  // the server survived
  EXPECT_EQ(good.request("PUT", "/kv/5", "v"), 201);
  good.close();
  f.server->shutdown();
}

TEST(Serve, OversizedBodyGets413) {
  ServerFixture f;
  Client c(f.cfg.port);
  net::HttpRequest req;
  req.method = "PUT";
  req.path = "/kv/1";
  req.body = std::string(net::kMaxBodyBytes + 1, 'x');
  c.sock.write(net::serialize(req));
  net::HttpResponse resp;
  auto readFn = [&](void* o, size_t n) { return c.sock.read(o, n); };
  ASSERT_EQ(net::read_response_status(readFn, resp), net::ReadStatus::kOk);
  EXPECT_EQ(resp.status, 413);
  c.close();
  f.server->shutdown();
}

TEST(Serve, ConcurrentClientsConserveTotalBalance) {
  ServerFixture f(/*workers=*/4, /*accounts=*/8, /*balance=*/1000);
  constexpr int kClients = 6, kRequests = 40;
  std::vector<std::thread> threads;
  std::atomic<int> ok{0};
  for (int t = 0; t < kClients; t++) {
    threads.emplace_back([&, t] {
      Client c(f.cfg.port);
      for (int i = 0; i < kRequests; i++) {
        const int from = (t + i) % 8, to = (t + i * 3 + 1) % 8;
        const int st = c.request("POST", "/txfer",
                                 "from=" + std::to_string(from) +
                                     "&to=" + std::to_string(to) + "&amount=1");
        if (st == 200 || st == 409) ok++;
      }
      c.close();
    });
  }
  for (auto& th : threads) th.join();
  f.server->shutdown();
  EXPECT_EQ(ok.load(), kClients * kRequests);
  EXPECT_EQ(total_balance(f.db), 8 * 1000);
}

// Every serve-visible fault site, armed at 5% in turn. Socket resets
// and accept failures fire per connection, so each request dials a
// fresh one; a dead connection answers -1. No fault may create or
// destroy money.
TEST(Serve, FaultsMidFlightLeaveInvariantsIntact) {
  for (const fault::Site site : {fault::Site::kSocketReset, fault::Site::kServeAcceptFail,
                                 fault::Site::kServeWriteShort}) {
    SCOPED_TRACE(static_cast<int>(site));
    ServerFixture f(/*workers=*/4, /*accounts=*/8, /*balance=*/1000);
    fault::PlanScope scope(fault::single_site(site, 0.05, 7));
    constexpr int kClients = 4, kRequests = 30;
    std::vector<std::thread> threads;
    for (int t = 0; t < kClients; t++) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kRequests; i++) {
          Client c(f.cfg.port);
          c.request("POST", "/txfer",
                    "from=" + std::to_string((t + i) % 8) +
                        "&to=" + std::to_string((t + i + 1) % 8) + "&amount=1");
          c.close();
        }
      });
    }
    for (auto& th : threads) th.join();
    f.server->shutdown();
    EXPECT_GT(fault::fired(site), 0u);
    EXPECT_EQ(total_balance(f.db), 8 * 1000);
  }
}

TEST(Serve, AcceptFailFaultDropsConnectionButServerSurvives) {
  ServerFixture f;
  fault::PlanScope scope(fault::single_site(fault::Site::kServeAcceptFail, 1.0, 3));
  {
    // Every accept fails: the client sees EOF on a valid socket.
    Client c(f.cfg.port);
    char one;
    EXPECT_EQ(c.sock.read(&one, 1), 0u);
    c.close();
  }
  fault::clear_plan();
  Client c2(f.cfg.port);
  EXPECT_EQ(c2.request("PUT", "/kv/1", "alive"), 201);
  c2.close();
  f.server->shutdown();
}

TEST(Serve, WriteShortFaultTruncatesResponseButCommits) {
  ServerFixture f;
  {
    Client setup(f.cfg.port);
    ASSERT_EQ(setup.request("PUT", "/kv/1", "committed"), 201);
    setup.close();
  }
  {
    fault::PlanScope scope(fault::single_site(fault::Site::kServeWriteShort, 1.0, 5));
    Client c(f.cfg.port);
    // The response is cut mid-write and the connection dropped: the
    // client cannot parse it...
    EXPECT_EQ(c.request("PUT", "/kv/1", "lost-ack"), -1);
    c.close();
  }
  // ...but the transaction committed before the write fault (same as a
  // TCP connection dying after the server's commit point).
  Client check(f.cfg.port);
  std::string body;
  EXPECT_EQ(check.request("GET", "/kv/1", "", &body), 200);
  EXPECT_EQ(body, "lost-ack");
  check.close();
  f.server->shutdown();
}

TEST(Serve, ShutdownDrainsInFlightRequestsThenStops) {
  ServerFixture f(/*workers=*/2);
  Client c(f.cfg.port);
  EXPECT_EQ(c.request("PUT", "/kv/1", "before"), 201);
  f.server->shutdown();
  EXPECT_FALSE(f.server->running());
  // The drained connection reads EOF now.
  char one;
  EXPECT_EQ(c.sock.read(&one, 1), 0u);
  c.close();
  // The row survived the shutdown (committed, not drained away).
  auto conn = f.db.connect();
  auto rs = conn->execute("SELECT v FROM kv WHERE k = ?", {int64_t{1}});
  ASSERT_EQ(rs.size(), 1u);
  EXPECT_EQ(rs.str_at(0, 0), "before");
}

TEST(Serve, ShutdownIsIdempotentAndRestartableProcessWide) {
  ServerFixture f;
  f.server->shutdown();
  f.server->shutdown();  // second call is a no-op
  // A fresh server on a fresh port serves again in the same process.
  ServerFixture g;
  Client c(g.cfg.port);
  EXPECT_EQ(c.request("PUT", "/kv/2", "again"), 201);
  c.close();
  g.server->shutdown();
}

// Idle workers spin on the ready queue for core::kWaitSpinNanos, then
// park; the edge callback's push must still wake one.
constexpr auto kPastSpinBudget = std::chrono::nanoseconds(100 * core::kWaitSpinNanos);

TEST(Serve, WorkersParkedPastSpinBudgetStillServe) {
  ServerFixture f(/*workers=*/2);
  Client c(f.cfg.port);
  EXPECT_EQ(c.request("PUT", "/kv/4", "idle"), 201);
  const uint64_t parkedBefore = counters().readyPopsParked.load();
  std::this_thread::sleep_for(kPastSpinBudget);
  std::string body;
  EXPECT_EQ(c.request("GET", "/kv/4", "", &body), 200);
  EXPECT_EQ(body, "idle");
  c.close();
  f.server->shutdown();
  // Whichever worker did not serve the first request was idle across
  // the sleep; its pop is counted when it returns, by shutdown at the
  // latest.
  EXPECT_GT(counters().readyPopsParked.load(), parkedBefore) << "an idle worker parked";
}

TEST(Serve, ShutdownWithParkedWorkersReturnsWellInsideDrainTimeout) {
  ServerFixture f(/*workers=*/2);
  Client c(f.cfg.port);
  EXPECT_EQ(c.request("PUT", "/kv/5", "idle"), 201);
  std::this_thread::sleep_for(kPastSpinBudget);
  const auto start = std::chrono::steady_clock::now();
  f.server->shutdown();
  const auto took = std::chrono::duration_cast<std::chrono::milliseconds>(
      std::chrono::steady_clock::now() - start);
  EXPECT_LT(static_cast<uint64_t>(took.count()), f.cfg.drainTimeoutMs / 10);
  c.close();
}

TEST(Serve, MetricsSectionIsValidJsonShape) {
  ServerFixture f;
  Client c(f.cfg.port);
  EXPECT_EQ(c.request("PUT", "/kv/3", "m"), 201);
  c.close();
  f.server->shutdown();
  const std::string m = metrics_section();
  EXPECT_EQ(m.front(), '{');
  EXPECT_EQ(m.back(), '}');
  EXPECT_NE(m.find("\"accepted\":"), std::string::npos);
  EXPECT_NE(m.find("\"abortPerRequest\":"), std::string::npos);
  EXPECT_NE(m.find("\"parkedWaiterDepth\":"), std::string::npos);
  EXPECT_NE(m.find("\"readyPopsSpun\":"), std::string::npos);
  EXPECT_NE(m.find("\"readyPopsParked\":"), std::string::npos);
}

}  // namespace
}  // namespace sbd::serve
