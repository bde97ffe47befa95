// The HTTP client loop of the serve workloads.
//
// Open loop (rate > 0): request j of the run is due at t0 + j / rate,
// whether or not earlier responses came back, and its latency runs from
// that due time. A stall inside the server therefore charges every
// request queued behind it, and how late the generator sent each
// request is reported on its own. Closed loop (rate == 0): each
// connection sends its next request as soon as the previous response
// arrives, and latency runs from the send.
//
// The global sequence j is dealt round-robin over the connections. Each
// connection is one plain (non-SBD) thread over one keep-alive socket;
// a dead or churned connection is re-dialled on the next request.
//
// Requests due in the warm-up window are sent and checked but enter no
// statistic. In the measured window a failed request (transport error,
// 5xx, or not sent within 1 s after the window) enters the latency set
// as +infinity.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "net/http.h"
#include "spans.h"
#include "workload.h"

namespace sbd::bench {

struct LoadConfig {
  int port = 0;
  int connections = 2;
  double rate = 0;      // open loop: total requests per second; 0 = closed loop
  double warmupS = 0;
  double measureS = 1;
  double churn = 0;     // probability of closing the connection after a request
  uint64_t seed = 1;
  // Fills request `j` for connection `conn` from the connection's rng.
  std::function<void(int conn, uint64_t j, Rng& rng, net::HttpRequest& req)> make;
  // Runs on connection `conn`'s thread for every response; false marks
  // an answer that is wrong for its request.
  std::function<bool(int conn, const net::HttpRequest& req, const net::HttpResponse& resp)>
      check;
  SpanLog* spans = nullptr;  // traced runs only
  std::vector<int> cpus;     // connection i runs on cpus[i % size]; empty: unpinned
};

struct LoadResult {
  explicit LoadResult(double measureS) : pass(measureS, 1) {}

  Pass pass;                   // the measured requests, latencies sampled
  std::vector<double> lateMs;  // open loop: send time minus due time, same samples
  // The rest count warm-up requests too.
  uint64_t wrong = 0;          // responses the checker rejected
  uint64_t transportErrors = 0;
  uint64_t reconnects = 0;     // dials beyond each connection's first
};

LoadResult run_load(const LoadConfig& cfg);

}  // namespace sbd::bench
