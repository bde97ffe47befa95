// sbd::serve — the sustained-load serving scenario (ROADMAP "millions
// of users"): an event-driven HTTP front end over the sbd::db store.
//
// Architecture (one server):
//
//   dispatcher thread ── accept()s connections, arms a one-shot
//        │               readiness edge on each (Pipe::arm_notify)
//        ▼
//   ready queue  ◄────── edge callbacks push connections that became
//        │               readable (or hit EOF); EPOLLONESHOT-style:
//        │               a connection is armed XOR queued XOR running
//        ▼
//   worker pool ───────  N SbdThreads; each pops a ready connection,
//                        reads ONE request, runs the handler inside the
//                        current atomic section (db statements join the
//                        section's DB transaction via TxDbConnection,
//                        the response is buffered in the TxSocket), and
//                        splits — response and row updates become
//                        visible atomically at the commit. On abort
//                        (deadlock, chaos injection) the section
//                        retries: consumed request bytes replay from
//                        B_R, the DB transaction rolled back, the
//                        response buffer discarded. A request is
//                        exactly the paper's unit of atomicity.
//
// This multiplexes N keep-alive connections onto W workers without a
// thread per connection — the regime where synchronized-by-default
// must earn its keep (many small independent transactions over shared
// rows) and where the deferred-update sandboxing of TxSocket/TxDb
// wrappers is load-bearing rather than decorative.
//
// Endpoints over the store:
//   GET  /kv/<k>    read one row            (200 value | 404)
//   PUT  /kv/<k>    upsert (body = value)   (200 updated | 201 created)
//   POST /txfer     body "from=A&to=B&amount=N": moves N between two
//                   account rows in ONE atomic section (409 when the
//                   source balance is insufficient; total balance is
//                   conserved under any schedule, abort, or fault)
//
// Fault model: kSocketReset (client handed a dead connection),
// kServeAcceptFail (connection torn down before the server sees it,
// ECONNABORTED-style), kServeWriteShort (response cut off mid-write,
// connection dropped). All three must leave the conservation invariant
// intact — tests/serve/serve_test.cpp checks each under concurrent
// transfers.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "db/db.h"
#include "net/http.h"
#include "net/loopback.h"

namespace sbd::serve {

struct Config {
  int port = 8090;
  int workers = 4;
  // Per-request body cap forwarded to the HTTP parser (413 beyond it).
  size_t maxBodyBytes = net::kMaxBodyBytes;
  // Graceful-shutdown grace: how long to wait for in-flight requests
  // before force-closing connections (which EOFs blocked readers).
  uint64_t drainTimeoutMs = 2000;
};

// Process-wide serving counters (monotonic except activeConnections).
// Global, not per-Server: the obs metrics provider must stay valid for
// the life of the process, and tests/benches read them after the
// server is gone.
struct Counters {
  std::atomic<uint64_t> accepted{0};        // connections handed to the dispatcher
  std::atomic<uint64_t> acceptFailed{0};    // kServeAcceptFail tear-downs
  std::atomic<uint64_t> activeConnections{0};
  std::atomic<uint64_t> closedConnections{0};
  std::atomic<uint64_t> getRequests{0};
  std::atomic<uint64_t> putRequests{0};
  std::atomic<uint64_t> txferRequests{0};
  std::atomic<uint64_t> otherRequests{0};   // routed but unknown endpoint
  std::atomic<uint64_t> badRequests{0};     // unframeable (400/413)
  std::atomic<uint64_t> responses2xx{0};
  std::atomic<uint64_t> responses4xx{0};
  std::atomic<uint64_t> responses5xx{0};
  std::atomic<uint64_t> keepAliveReuses{0}; // request #2+ on one connection
  std::atomic<uint64_t> shortWrites{0};     // kServeWriteShort firings
  std::atomic<uint64_t> drainedInFlight{0}; // requests completed during drain
  // Ready-queue pops that had to wait: parked on the condvar, or found
  // the queue empty but got a connection inside the spin budget (or on
  // the recheck under the lock).
  std::atomic<uint64_t> readyPopsSpun{0};
  std::atomic<uint64_t> readyPopsParked{0};
  // TxnManager aborts at the last Server::start(): the metrics section
  // reports aborts-per-request over the serving window.
  std::atomic<uint64_t> txnAbortsAtStart{0};

  uint64_t requests_total() const {
    return getRequests.load(std::memory_order_relaxed) +
           putRequests.load(std::memory_order_relaxed) +
           txferRequests.load(std::memory_order_relaxed) +
           otherRequests.load(std::memory_order_relaxed) +
           badRequests.load(std::memory_order_relaxed);
  }
};
Counters& counters();

// The obs metrics provider: a JSON object with the counters above,
// the aborts-per-request rate over the serving window, and the live
// parked-waiter depth. Registered under "serve" by Server::start();
// callable directly.
std::string metrics_section();

// Creates the KV and ACCOUNTS tables if missing (idempotent).
void ensure_tables(db::Database& db);
// Inserts accounts 0..n-1 with `balance` each (fresh table expected).
void seed_accounts(db::Database& db, int n, int64_t balance);
// SUM(balance) over all accounts — the conservation invariant.
int64_t total_balance(db::Database& db);

class Server {
 public:
  // `db` must outlive the server. Tables are created on start().
  Server(db::Database& db, Config cfg);
  ~Server();  // calls shutdown() if still running

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Binds the port and launches the dispatcher + worker pool. The
  // calling thread must be SBD-attached (SBD_ATTACH_THREAD or a test
  // main); it is NOT blocked — serving runs on internal threads.
  void start();

  // Graceful shutdown: stop accepting, let in-flight (and already
  // ready) requests finish within drainTimeoutMs, then force-EOF the
  // stragglers, and join every thread. Idempotent.
  void shutdown();

  bool running() const { return running_.load(std::memory_order_acquire); }
  int port() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::atomic<bool> running_{false};
};

}  // namespace sbd::serve
