#include "serve/serve.h"

#include <chrono>
#include <deque>
#include <mutex>
#include <sstream>
#include <string_view>
#include <thread>
#include <vector>

#include "api/sbd.h"
#include "common/timing.h"
#include "core/fault.h"
#include "core/obs.h"
#include "core/queue.h"
#include "core/transaction.h"
#include "db/txwrapper.h"
#include "threads/sbd_thread.h"

namespace sbd::serve {

namespace {

// Parses a non-negative decimal integer; rejects junk and overflow
// (request inputs are hostile by assumption).
bool parse_i64(std::string_view s, int64_t& out) {
  if (s.empty() || s.size() > 18) return false;
  int64_t v = 0;
  for (char c : s) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + (c - '0');
  }
  out = v;
  return true;
}

// Pulls `key` out of a "a=1&b=2" form body.
bool form_field(const std::string& body, std::string_view key, int64_t& out) {
  size_t pos = 0;
  while (pos < body.size()) {
    size_t amp = body.find('&', pos);
    if (amp == std::string::npos) amp = body.size();
    const std::string_view pair(body.data() + pos, amp - pos);
    const size_t eq = pair.find('=');
    if (eq != std::string_view::npos && pair.substr(0, eq) == key)
      return parse_i64(pair.substr(eq + 1), out);
    pos = amp + 1;
  }
  return false;
}

}  // namespace

Counters& counters() {
  // Intentionally leaked: the obs metrics provider reads these from
  // atexit paths, after any static destruction order.
  static Counters* c = new Counters();
  return *c;
}

std::string metrics_section() {
  Counters& k = counters();
  const uint64_t reqs = k.requests_total();
  const uint64_t abortsNow = core::TxnManager::instance().snapshot_stats().aborts;
  const uint64_t base = k.txnAbortsAtStart.load(std::memory_order_relaxed);
  const uint64_t aborts = abortsNow >= base ? abortsNow - base : 0;
  std::ostringstream os;
  os << "{\"accepted\": " << k.accepted.load(std::memory_order_relaxed)
     << ", \"acceptFailed\": " << k.acceptFailed.load(std::memory_order_relaxed)
     << ", \"activeConnections\": " << k.activeConnections.load(std::memory_order_relaxed)
     << ", \"closedConnections\": " << k.closedConnections.load(std::memory_order_relaxed)
     << ", \"requests\": {\"get\": " << k.getRequests.load(std::memory_order_relaxed)
     << ", \"put\": " << k.putRequests.load(std::memory_order_relaxed)
     << ", \"txfer\": " << k.txferRequests.load(std::memory_order_relaxed)
     << ", \"other\": " << k.otherRequests.load(std::memory_order_relaxed)
     << ", \"bad\": " << k.badRequests.load(std::memory_order_relaxed) << "}"
     << ", \"responses\": {\"2xx\": " << k.responses2xx.load(std::memory_order_relaxed)
     << ", \"4xx\": " << k.responses4xx.load(std::memory_order_relaxed)
     << ", \"5xx\": " << k.responses5xx.load(std::memory_order_relaxed) << "}"
     << ", \"keepAliveReuses\": " << k.keepAliveReuses.load(std::memory_order_relaxed)
     << ", \"shortWrites\": " << k.shortWrites.load(std::memory_order_relaxed)
     << ", \"drainedInFlight\": " << k.drainedInFlight.load(std::memory_order_relaxed)
     << ", \"txnAborts\": " << aborts
     << ", \"abortPerRequest\": "
     << (reqs ? static_cast<double>(aborts) / static_cast<double>(reqs) : 0.0)
     << ", \"parkedWaiterDepth\": " << core::ParkingLot::approx_waiters()
     << ", \"readyPopsSpun\": " << k.readyPopsSpun.load(std::memory_order_relaxed)
     << ", \"readyPopsParked\": " << k.readyPopsParked.load(std::memory_order_relaxed) << "}";
  return os.str();
}

void ensure_tables(db::Database& db) {
  auto c = db.connect();
  if (!db.has_table("KV")) c->execute("CREATE TABLE kv (k INT PRIMARY KEY, v TEXT)");
  if (!db.has_table("ACCOUNTS"))
    c->execute("CREATE TABLE accounts (id INT PRIMARY KEY, balance INT)");
}

void seed_accounts(db::Database& db, int n, int64_t balance) {
  ensure_tables(db);
  auto c = db.connect();
  for (int i = 0; i < n; i++)
    c->execute("INSERT INTO accounts VALUES (?, ?)",
               {static_cast<int64_t>(i), balance});
}

int64_t total_balance(db::Database& db) {
  auto c = db.connect();
  auto rs = c->execute("SELECT SUM(balance) FROM accounts");
  return rs.size() ? rs.int_at(0, 0) : 0;
}

// ---------------------------------------------------------------------------
// Server internals
// ---------------------------------------------------------------------------

namespace {

// One accepted connection. Heap-allocated and owned by the server for
// its whole life (armed edge callbacks hold raw pointers; the TxSocket
// placement rule requires off-stack buffers anyway).
struct Conn {
  explicit Conn(net::Socket s) : sock(s) {}
  net::TxSocket sock;
  std::unique_ptr<db::TxDbConnection> dbc;  // lazy; one at a time by design
  uint64_t requestsServed = 0;              // touched only in finish()
  std::atomic<bool> retired{false};
};

// The multiplex point: edge callbacks push, workers pop. Held by
// shared_ptr so a late callback (a client writing just as the server
// dies) still lands on live memory. Poppers park in the parking lot on
// &ready, a lock-free mirror of `!q.empty() || stopping` written under
// mu at every change of either.
struct ReadyQueue {
  std::mutex mu;
  std::deque<Conn*> q;
  bool stopping = false;
  std::atomic<bool> ready{false};

  void publish_locked() {
    ready.store(!q.empty() || stopping, std::memory_order_relaxed);
  }

  void push(Conn* c) {
    {
      std::lock_guard<std::mutex> lk(mu);
      if (stopping) return;  // drained server: drop, the conn gets closed
      q.push_back(c);
      publish_locked();
    }
    core::ParkingLot::instance().unpark_one(&ready);
  }

  // Blocks for the next ready connection; keeps draining queued work
  // after stop() and returns nullptr once stopping AND empty.
  Conn* pop_blocking() {
    auto lk = core::await_handoff(ready, mu, [this] { return !q.empty() || stopping; },
                                  counters().readyPopsSpun, counters().readyPopsParked);
    if (q.empty()) return nullptr;
    Conn* c = q.front();
    q.pop_front();
    publish_locked();
    return c;
  }

  void stop() {
    {
      std::lock_guard<std::mutex> lk(mu);
      stopping = true;
      publish_locked();
    }
    core::ParkingLot::instance().unpark_all(&ready);
  }

  bool empty() {
    std::lock_guard<std::mutex> lk(mu);
    return q.empty();
  }
};

// Per-request outcome, gathered inside the (abortable) section and
// applied to the global counters exactly once, via the commit-deferred
// finish. Trivially copyable on purpose: it crosses the commit boundary
// inside a std::function capture.
struct Tally {
  uint8_t endpoint = 0;  // 0 none (EOF), 'g' get, 'p' put, 't' txfer, 'o' other, 'b' bad
  uint8_t statusClass = 0;
  bool shortWrite = false;
};

}  // namespace

struct Server::Impl {
  db::Database& db;
  Config cfg;
  net::Listener listener;
  std::shared_ptr<ReadyQueue> ready = std::make_shared<ReadyQueue>();
  std::thread dispatcher;
  std::vector<threads::SbdThread> workers;

  std::mutex connsMu;
  std::vector<std::unique_ptr<Conn>> conns;

  std::atomic<uint64_t> inFlight{0};
  std::atomic<bool> stopping{false};

  Impl(db::Database& d, Config c) : db(d), cfg(c) {}

  // --- dispatcher ----------------------------------------------------------

  void dispatch_loop() {
    for (;;) {
      net::Socket s = listener.accept();
      if (!s.valid()) return;  // listener closed: shutdown
      if (fault::should_fire(fault::Site::kServeAcceptFail)) {
        // ECONNABORTED: the connection dies in the backlog. The client
        // sees EOF and must retry; the server keeps serving.
        counters().acceptFailed.fetch_add(1, std::memory_order_relaxed);
        s.shutdown_read();
        s.close();
        continue;
      }
      Conn* pc;
      {
        std::lock_guard<std::mutex> lk(connsMu);
        conns.push_back(std::make_unique<Conn>(s));
        pc = conns.back().get();
      }
      counters().accepted.fetch_add(1, std::memory_order_relaxed);
      counters().activeConnections.fetch_add(1, std::memory_order_relaxed);
      arm(*pc);
    }
  }

  void arm(Conn& c) {
    // One-shot: fires (immediately if data is already buffered) and
    // disarms; the connection is then queued until a worker owns it.
    c.sock.raw().arm_read_notify([rq = ready, pc = &c] { rq->push(pc); });
  }

  // --- workers -------------------------------------------------------------

  void worker_body() {
    auto& tc = core::tls_context();
    for (;;) {
      Conn* conn = nullptr;
      // The pop runs between sections (id released): an idle worker
      // must not pin a transaction id the serving load needs (§3.5).
      // inFlight is bumped INSIDE the pop so an abort-retry of the next
      // section cannot double-count it (the checkpoint is taken after).
      core::split_section_releasing_id(tc, [&] {
        core::Safepoint::SafeScope safe(tc);
        conn = ready->pop_blocking();
        if (conn) inFlight.fetch_add(1, std::memory_order_relaxed);
      });
      if (!conn) break;
      handle_one(tc, *conn);
      // Commit: the response (TxSocket B_W) and the row updates become
      // visible atomically; then the deferred finish() below re-arms or
      // retires the connection and balances inFlight.
      split(tc);
    }
  }

  // Reads and serves exactly one request inside the current section.
  // Every path registers exactly one commit-deferred finish().
  void handle_one(core::ThreadContext& tc, Conn& c) {
    net::HttpRequest req;
    auto readFn = [&](void* out, size_t n) { return c.sock.read(out, n); };
    const net::ReadStatus rs = net::read_request_status(readFn, req, cfg.maxBodyBytes);
    if (rs == net::ReadStatus::kEof) {
      defer_finish(tc, c, /*keep=*/false, Tally{});
      return;
    }
    Tally t;
    net::HttpResponse resp;
    bool keep = true;
    if (rs != net::ReadStatus::kOk) {
      // Unframeable request: answer 4xx and drop the connection — its
      // byte stream can no longer be trusted (the acceptance criterion
      // for the old stoul crash).
      resp.status = rs == net::ReadStatus::kTooLarge ? 413 : 400;
      resp.body = "unframeable request";
      t.endpoint = 'b';
      keep = false;
    } else {
      route(c, req, resp, t);
      auto cc = req.headers.find("Connection");
      if (cc != req.headers.end() && cc->second == "close") keep = false;
    }
    t.statusClass = static_cast<uint8_t>(resp.status / 100);
    const std::string wire = net::serialize(resp);
    if (fault::should_fire(fault::Site::kServeWriteShort)) {
      // Mid-flight short write: half the response reaches the wire and
      // the connection dies. The db transaction still commits — same as
      // a real TCP connection lost after the server's commit point; the
      // client must treat the truncated response as unknown-outcome.
      t.shortWrite = true;
      keep = false;
      c.sock.write(std::string_view(wire).substr(0, wire.size() / 2));
    } else {
      c.sock.write(wire);
    }
    defer_finish(tc, c, keep, t);
  }

  void route(Conn& c, const net::HttpRequest& req, net::HttpResponse& resp, Tally& t) {
    if (!c.dbc) c.dbc = std::make_unique<db::TxDbConnection>(db);
    db::TxDbConnection& dbc = *c.dbc;
    try {
      int64_t key = 0;
      if (req.method == "GET" && req.path.rfind("/kv/", 0) == 0 &&
          parse_i64(std::string_view(req.path).substr(4), key)) {
        t.endpoint = 'g';
        auto rows = dbc.execute("SELECT v FROM kv WHERE k = ?", {key});
        if (rows.size() == 0) {
          resp.status = 404;
        } else {
          resp.body = rows.str_at(0, 0);
        }
      } else if (req.method == "PUT" && req.path.rfind("/kv/", 0) == 0 &&
                 parse_i64(std::string_view(req.path).substr(4), key)) {
        t.endpoint = 'p';
        auto upd = dbc.execute("UPDATE kv SET v = ? WHERE k = ?", {req.body, key});
        if (upd.updateCount == 0) {
          dbc.execute("INSERT INTO kv VALUES (?, ?)", {key, req.body});
          resp.status = 201;
        }
      } else if (req.method == "POST" && req.path == "/txfer") {
        t.endpoint = 't';
        int64_t from = 0, to = 0, amount = 0;
        if (!form_field(req.body, "from", from) || !form_field(req.body, "to", to) ||
            !form_field(req.body, "amount", amount)) {
          resp.status = 400;
          resp.body = "need from=&to=&amount=";
          return;
        }
        // Point SELECTs take exclusive row locks (strict 2PL), so both
        // rows are pinned for the rest of the section — the two
        // UPDATEs below cannot fail independently, and conservation
        // holds under any interleaving, abort, or injected fault.
        auto fromRs = dbc.execute("SELECT balance FROM accounts WHERE id = ?", {from});
        auto toRs = dbc.execute("SELECT balance FROM accounts WHERE id = ?", {to});
        if (fromRs.size() == 0 || toRs.size() == 0) {
          resp.status = 404;
          resp.body = "no such account";
          return;
        }
        const int64_t fromBal = fromRs.int_at(0, 0);
        const int64_t toBal = toRs.int_at(0, 0);
        if (from != to && fromBal < amount) {
          resp.status = 409;
          resp.body = "insufficient balance";
          return;
        }
        if (from != to) {
          dbc.execute("UPDATE accounts SET balance = ? WHERE id = ?",
                      {fromBal - amount, from});
          dbc.execute("UPDATE accounts SET balance = ? WHERE id = ?",
                      {toBal + amount, to});
        }
        resp.body = "ok";
      } else {
        t.endpoint = 'o';
        resp.status = 404;
        resp.body = "no such endpoint";
      }
    } catch (const db::DbDeadlock&) {
      throw;  // never reaches us: TxDbConnection aborts the section
    } catch (const db::DbError&) {
      // Defensive: no statement above can half-apply (see the 2PL note),
      // so a DbError here leaves the db transaction consistent; it rolls
      // back with the section only if the caller aborts. Answer 500 and
      // drop the connection.
      resp.status = 500;
      resp.body = "db error";
    }
  }

  void defer_finish(core::ThreadContext& tc, Conn& c, bool keep, Tally t) {
    // Runs exactly once, after the commit that flushed the response: an
    // aborted section discards (and the retry re-registers) it. Re-arm
    // MUST wait for the commit — re-queueing the connection while its
    // response is still buffered would let another worker interleave.
    (void)tc;
    sbd::on_commit([this, pc = &c, keep, t] { finish(*pc, keep, t); });
  }

  void finish(Conn& c, bool keep, Tally t) {
    Counters& k = counters();
    switch (t.endpoint) {
      case 'g': k.getRequests.fetch_add(1, std::memory_order_relaxed); break;
      case 'p': k.putRequests.fetch_add(1, std::memory_order_relaxed); break;
      case 't': k.txferRequests.fetch_add(1, std::memory_order_relaxed); break;
      case 'o': k.otherRequests.fetch_add(1, std::memory_order_relaxed); break;
      case 'b': k.badRequests.fetch_add(1, std::memory_order_relaxed); break;
      default: break;  // EOF pseudo-request
    }
    if (t.statusClass == 2) k.responses2xx.fetch_add(1, std::memory_order_relaxed);
    if (t.statusClass == 4) k.responses4xx.fetch_add(1, std::memory_order_relaxed);
    if (t.statusClass == 5) k.responses5xx.fetch_add(1, std::memory_order_relaxed);
    if (t.shortWrite) k.shortWrites.fetch_add(1, std::memory_order_relaxed);
    if (t.endpoint != 0) {
      c.requestsServed++;
      if (c.requestsServed > 1)
        k.keepAliveReuses.fetch_add(1, std::memory_order_relaxed);
      if (stopping.load(std::memory_order_relaxed))
        k.drainedInFlight.fetch_add(1, std::memory_order_relaxed);
    }
    if (keep && !stopping.load(std::memory_order_relaxed)) {
      arm(c);  // fires immediately if the next request already arrived
    } else {
      retire(c);
    }
    // Only shutdown() parks on &inFlight. Both sides store their own
    // variable, then load the other's, seq_cst: if this load misses
    // `stopping`, shutdown's predicate sees the decrement.
    inFlight.fetch_sub(1, std::memory_order_seq_cst);
    if (stopping.load(std::memory_order_seq_cst))
      core::ParkingLot::instance().unpark_all(&inFlight);
  }

  void retire(Conn& c) {
    if (c.retired.exchange(true)) return;
    c.sock.raw().disarm_read_notify();
    c.sock.raw().shutdown_read();
    c.sock.close();
    counters().activeConnections.fetch_sub(1, std::memory_order_relaxed);
    counters().closedConnections.fetch_add(1, std::memory_order_relaxed);
  }
};

Server::Server(db::Database& db, Config cfg)
    : impl_(std::make_unique<Impl>(db, cfg)) {}

Server::~Server() { shutdown(); }

int Server::port() const { return impl_->cfg.port; }

void Server::start() {
  if (running_.exchange(true)) return;
  ensure_tables(impl_->db);
  counters().txnAbortsAtStart.store(
      core::TxnManager::instance().snapshot_stats().aborts,
      std::memory_order_relaxed);
  obs::register_metrics_section("serve", &metrics_section);
  impl_->listener = net::Network::instance().listen(impl_->cfg.port);
  impl_->dispatcher = std::thread([this] { impl_->dispatch_loop(); });
  impl_->workers.reserve(static_cast<size_t>(impl_->cfg.workers));
  for (int i = 0; i < impl_->cfg.workers; i++) {
    impl_->workers.emplace_back([this] { impl_->worker_body(); });
    impl_->workers.back().start();
  }
}

void Server::shutdown() {
  if (!running_.exchange(false)) return;
  Impl& s = *impl_;
  s.stopping.store(true, std::memory_order_seq_cst);
  s.listener.close();  // dispatcher unblocks and exits
  s.ready->stop();     // workers drain the queue, then see nullptr
  {
    // Drain: give in-flight (and already-queued) requests their grace.
    // The park predicate may read only atomics, and ReadyQueue::empty
    // takes the queue mutex, so the queue is re-checked outside it; a
    // queued request with none in flight is a worker about to pop it.
    const uint64_t deadline = now_nanos() + s.cfg.drainTimeoutMs * 1'000'000;
    auto busy = [&s] { return s.inFlight.load(std::memory_order_seq_cst) != 0; };
    while ((busy() || !s.ready->empty()) && now_nanos() < deadline) {
      if (core::ParkingLot::instance().park(&s.inFlight, busy, 0, deadline) ==
          core::ParkResult::kNotBlocked)
        std::this_thread::yield();
    }
  }
  {
    // Force phase: EOF every connection. A worker still blocked on a
    // half-arrived request wakes, answers EOF, and exits cleanly.
    std::lock_guard<std::mutex> lk(s.connsMu);
    for (auto& c : s.conns) s.retire(*c);
  }
  for (auto& w : s.workers) w.join();
  s.workers.clear();
  if (s.dispatcher.joinable()) s.dispatcher.join();
}

}  // namespace sbd::serve
