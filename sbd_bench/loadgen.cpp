#include "loadgen.h"

#include <sys/prctl.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <thread>

#include "net/loopback.h"
#include "placement.h"

namespace sbd::bench {

namespace {

using Clock = std::chrono::steady_clock;

constexpr double kFailedMs = std::numeric_limits<double>::infinity();
// Open loop: how long after the window requests due in it may still go out.
constexpr double kGraceS = 1;

// Every 4th measured request of a connection keeps its latency, so the
// bench's own memory stays small next to the program's and hardly grows
// with throughput. Failures are sampled at the same rate; their count is
// exact in Pass::failed.
constexpr uint64_t kLatencySampleEvery = 4;

uint64_t ns_of(Clock::time_point t) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch()).count());
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

Clock::duration seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(std::chrono::duration<double>(s));
}

struct Conn {
  explicit Conn(double measureS) : r(measureS) {}

  int id = 0;
  net::Socket sock;
  uint64_t dials = 0;
  SpanBuffer* spans = nullptr;
  LoadResult r;

  // A measured request: its latency goes to the window it was due in,
  // its completion to the one it finished in. A window's busy time runs
  // to its last completion, so its throughput is not pinned to exactly
  // the offered rate of an open loop. Returns whether it is a sample.
  bool record(Clock::time_point windowStart, Clock::time_point due, Clock::time_point done,
              double latencyMs) {
    Pass& p = r.pass;
    const bool sample = p.attempted++ % kLatencySampleEvery == 0;
    Window* dueIn = p.window_at(ms_between(windowStart, due) / 1e3);
    if (sample && dueIn) dueIn->latencyMs[0].push_back(latencyMs);
    if (!std::isfinite(latencyMs)) {
      p.failed++;
      return sample;
    }
    const double doneS = ms_between(windowStart, done) / 1e3;
    if (Window* w = p.window_at(doneS)) {
      w->completed++;
      w->busyS = std::max(w->busyS, doneS - static_cast<double>(w - p.windows.data()) * p.windowS);
    }
    return sample;
  }

  void hang_up() {
    if (sock.valid()) sock.close();
    sock = net::Socket();
  }
};

// One request/response exchange on the connection, dialling first if it
// is closed. False on a transport error, which leaves it closed.
bool exchange(Conn& c, int port, const net::HttpRequest& req, net::HttpResponse& resp,
              uint64_t parent, uint64_t j) {
  if (!c.sock.valid()) {
    ScopedSpan span(c.spans, "net.connect", parent, j);
    c.sock = net::Network::instance().connect(port, /*timeoutMs=*/1000);
    c.dials++;
  }
  {
    ScopedSpan span(c.spans, "net.write", parent, j);
    c.sock.write(net::serialize(req));
  }
  net::ReadStatus st;
  {
    ScopedSpan span(c.spans, "net.wait", parent, j);
    auto readFn = [&](void* out, size_t n) { return c.sock.read(out, n); };
    st = net::read_response_status(readFn, resp);
  }
  if (st != net::ReadStatus::kOk) {
    c.hang_up();
    return false;
  }
  auto cc = resp.headers.find("Connection");
  if (cc != resp.headers.end() && cc->second == "close") c.hang_up();
  return true;
}

void client_loop(const LoadConfig& cfg, Conn& c, Clock::time_point t0) {
  // The default 50 us timer slack would make every open-loop send late
  // by about as much as a whole request takes.
  prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  if (!cfg.cpus.empty()) pin_self(cfg.cpus[static_cast<size_t>(c.id) % cfg.cpus.size()]);
  Rng rng(mix64(cfg.seed * 0x9E3779B97F4A7C15ULL + static_cast<uint64_t>(c.id) + 1));
  const bool open = cfg.rate > 0;
  const auto warmEnd = t0 + seconds(cfg.warmupS);
  const auto end = warmEnd + seconds(cfg.measureS);
  const auto giveUp = end + seconds(kGraceS);
  const double periodNs = open ? 1e9 / cfg.rate : 0;
  for (uint64_t j = static_cast<uint64_t>(c.id);; j += static_cast<uint64_t>(cfg.connections)) {
    Clock::time_point due =
        open ? t0 + std::chrono::nanoseconds(static_cast<int64_t>(periodNs * static_cast<double>(j)))
             : Clock::now();
    if (due >= end) break;
    const bool measured = due >= warmEnd;
    net::HttpRequest req;
    cfg.make(c.id, j, rng, req);
    const bool churn = rng.chance(cfg.churn);
    if (open && Clock::now() >= giveUp) {
      // Due in time but never sent: the generator fell too far behind.
      if (measured) c.record(warmEnd, due, Clock::now(), kFailedMs);
      continue;
    }
    if (open) std::this_thread::sleep_until(due);
    const auto sent = Clock::now();
    const uint64_t root = c.spans ? c.spans->next_id() : 0;
    net::HttpResponse resp;
    const bool ok = exchange(c, cfg.port, req, resp, root, j);
    const auto done = Clock::now();
    if (c.spans) c.spans->add("loadgen.request", ns_of(due), ns_of(done), root, 0, j);

    if (ok && !cfg.check(c.id, req, resp)) c.r.wrong++;
    if (!ok) c.r.transportErrors++;
    const bool failed = !ok || resp.status >= 500;
    if (measured && c.record(warmEnd, due, done, failed ? kFailedMs : ms_between(due, done)) &&
        open)
      c.r.lateMs.push_back(ms_between(due, sent));
    if (churn) c.hang_up();
  }
  c.hang_up();
}

}  // namespace

LoadResult run_load(const LoadConfig& cfg) {
  std::vector<Conn> conns(static_cast<size_t>(cfg.connections), Conn(cfg.measureS));
  for (int i = 0; i < cfg.connections; i++) {
    conns[static_cast<size_t>(i)].id = i;
    if (cfg.spans) conns[static_cast<size_t>(i)].spans = cfg.spans->buffer();
  }
  std::vector<std::thread> threads;
  const auto t0 = Clock::now();
  for (auto& c : conns) threads.emplace_back(client_loop, std::cref(cfg), std::ref(c), t0);
  for (auto& t : threads) t.join();

  LoadResult sum(cfg.measureS);
  for (const Conn& c : conns) {
    const LoadResult& r = c.r;
    sum.pass.merge(r.pass);
    sum.lateMs.insert(sum.lateMs.end(), r.lateMs.begin(), r.lateMs.end());
    sum.wrong += r.wrong;
    sum.transportErrors += r.transportErrors;
    sum.reconnects += c.dials > 0 ? c.dials - 1 : 0;
  }
  return sum;
}

}  // namespace sbd::bench
