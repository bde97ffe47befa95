// Loopback network, HTTP framing, transactional sockets.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "api/sbd.h"
#include "common/timing.h"
#include "core/queue.h"
#include "net/http.h"
#include "net/loopback.h"

namespace sbd::net {
namespace {

TEST(Pipe, ByteStreamRoundTrip) {
  Pipe p;
  p.write("hello", 5);
  char buf[8] = {};
  EXPECT_EQ(p.read(buf, 8), 5u);
  EXPECT_EQ(std::string(buf, 5), "hello");
}

TEST(Pipe, EofAfterCloseWrite) {
  Pipe p;
  p.write("x", 1);
  p.close_write();
  char c;
  EXPECT_EQ(p.read(&c, 1), 1u);
  EXPECT_EQ(p.read(&c, 1), 0u);
}

TEST(Pipe, BlockingReadWokenByWriter) {
  Pipe p;
  std::thread writer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    p.write("late", 4);
  });
  char buf[8];
  EXPECT_EQ(p.read(buf, 8), 4u);
  writer.join();
}

TEST(Pipe, TryReadNeverBlocks) {
  Pipe p;
  char buf[8] = {};
  EXPECT_EQ(p.try_read(buf, 8), 0u) << "empty pipe: nothing to take, no wait";
  p.write("abc", 3);
  EXPECT_EQ(p.try_read(buf, 2), 2u);
  EXPECT_EQ(std::string(buf, 2), "ab");
  p.close_write();
  EXPECT_EQ(p.try_read(buf, 8), 1u) << "buffered bytes outlive close_write";
  EXPECT_EQ(buf[0], 'c');
  EXPECT_EQ(p.try_read(buf, 8), 0u);
  EXPECT_EQ(p.read(buf, 8), 0u) << "EOF still reads 0";
}

TEST(Pipe, WriterBlockedOnFullPipeWokenByReader) {
  Pipe p(4);
  const std::string msg = "0123456789";
  std::thread writer([&] { p.write(msg.data(), msg.size()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(p.available(), 4u) << "the writer fills the pipe, then waits for room";
  std::string got;
  char buf[3];
  while (got.size() < msg.size()) {
    const size_t n = p.read(buf, sizeof(buf));
    ASSERT_GT(n, 0u);
    got.append(buf, n);
  }
  writer.join();
  EXPECT_EQ(got, msg);
}

TEST(Pipe, BlockingReadWokenByCloseWrite) {
  Pipe p;
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    p.close_write();
  });
  char buf[8];
  EXPECT_EQ(p.read(buf, 8), 0u);
  EXPECT_FALSE(p.wait_readable());
  closer.join();
}

// Waits that outlast the reader's spin (core::kWaitSpinNanos) end in a
// park, and the writer's futex wake must still reach it.
constexpr auto kPastSpinBudget = std::chrono::nanoseconds(100 * core::kWaitSpinNanos);

// Runs `wait` on this thread and writes one byte from another once
// `wait` is about to start plus kPastSpinBudget.
template <class Wait>
void write_late_while(Pipe& p, Wait wait) {
  std::atomic<bool> waiting{false};
  std::thread writer([&] {
    while (!waiting.load()) std::this_thread::yield();
    std::this_thread::sleep_for(kPastSpinBudget);
    p.write("w", 1);
  });
  waiting = true;
  wait();
  writer.join();
}

TEST(PipeWait, ReadWokenByWritePastSpinBudget) {
  Pipe p;
  const PipeWaitCounts before = pipe_wait_counts();
  char c = 0;
  write_late_while(p, [&] { EXPECT_EQ(p.read(&c, 1), 1u); });
  EXPECT_EQ(c, 'w');
  EXPECT_GT(pipe_wait_counts().parked, before.parked) << "the wait outlasted the spin";
}

TEST(PipeWait, WaitReadableWokenByWritePastSpinBudget) {
  Pipe p;
  const PipeWaitCounts before = pipe_wait_counts();
  write_late_while(p, [&] { EXPECT_TRUE(p.wait_readable()); });
  EXPECT_EQ(p.available(), 1u);
  EXPECT_GT(pipe_wait_counts().parked, before.parked) << "the wait outlasted the spin";
}

TEST(PipeWait, EofWokenByCloseWritePastSpinBudget) {
  Pipe a, b;
  std::thread closer([&] {
    std::this_thread::sleep_for(kPastSpinBudget);
    a.close_write();
    std::this_thread::sleep_for(kPastSpinBudget);
    b.close_write();
  });
  char c;
  EXPECT_EQ(a.read(&c, 1), 0u);
  EXPECT_FALSE(b.wait_readable());
  closer.join();
}

// Two threads bounce one byte 20k times. Before each send a thread
// busy-waits 0, ½, 1 or 2 spin budgets, so the other side's waits end
// in every way: data already there, caught by the spin, caught by the
// recheck under the lock, or parked. A lost wake-up hangs a side; the
// bound catches that, and closing both pipes then frees the threads.
TEST(PipeWait, PingPongAcrossSpinBudgetFinishes) {
  constexpr int kRounds = 10000;  // two messages per round
  constexpr auto kBound = std::chrono::seconds(60);
  auto delay = [](uint64_t i) {
    constexpr uint64_t kHalfBudgets[] = {0, 1, 2, 4};
    const uint64_t pick = (i * 0x9E3779B97F4A7C15ull) >> 62;
    const uint64_t until = now_nanos() + kHalfBudgets[pick] * core::kWaitSpinNanos / 2;
    while (now_nanos() < until) {
    }
  };
  Pipe ping, pong;
  std::atomic<int> done{0}, rounds{0};
  const PipeWaitCounts before = pipe_wait_counts();
  const auto start = std::chrono::steady_clock::now();
  std::thread a([&] {
    char c = 'p';
    for (int i = 0; i < kRounds; i++) {
      delay(2 * static_cast<uint64_t>(i));
      ping.write(&c, 1);
      if (pong.read(&c, 1) != 1) break;
      rounds.fetch_add(1, std::memory_order_relaxed);
    }
    done.fetch_add(1);
  });
  std::thread b([&] {
    char c;
    for (int i = 0; i < kRounds; i++) {
      if (ping.read(&c, 1) != 1) break;
      delay(2 * static_cast<uint64_t>(i) + 1);
      pong.write(&c, 1);
    }
    done.fetch_add(1);
  });
  while (done.load() < 2 && std::chrono::steady_clock::now() - start < kBound)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  const bool finished = done.load() == 2;
  ping.close_write();  // frees a hung side: its read sees EOF
  pong.close_write();
  a.join();
  b.join();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  ASSERT_TRUE(finished) << "hung after " << rounds.load() << " of " << kRounds << " rounds";
  EXPECT_EQ(rounds.load(), kRounds);
  const PipeWaitCounts after = pipe_wait_counts();
  const uint64_t waits = (after.spun - before.spun) + (after.parked - before.parked);
  EXPECT_GT(waits, 0u);
  EXPECT_LE(waits, 2u * kRounds) << "at most one count per read";
  std::printf("ping-pong: %.2f s, %llu waits spun, %llu parked\n", secs,
              static_cast<unsigned long long>(after.spun - before.spun),
              static_cast<unsigned long long>(after.parked - before.parked));
}

TEST(Network, ConnectAcceptPair) {
  auto listener = Network::instance().listen(8001);
  std::thread server([&] {
    Socket s = listener.accept();
    char buf[16] = {};
    const size_t n = s.read(buf, 16);
    s.write(std::string("echo:") + std::string(buf, n));
    s.close();
  });
  Socket c = Network::instance().connect(8001);
  c.write("ping");
  char buf[32] = {};
  size_t total = 0, n;
  while ((n = c.read(buf + total, sizeof(buf) - total)) > 0) total += n;
  EXPECT_EQ(std::string(buf, total), "echo:ping");
  server.join();
  listener.close();
}

TEST(Network, ListenerCloseUnblocksAccept) {
  auto listener = Network::instance().listen(8002);
  std::thread t([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    listener.close();
  });
  Socket s = listener.accept();
  EXPECT_FALSE(s.valid());
  t.join();
}

TEST(Http, RequestSerializeParseRoundTrip) {
  HttpRequest req;
  req.method = "POST";
  req.path = "/orders?id=5";
  req.headers["Cookie"] = "sid=abc";
  req.body = "payload";
  const std::string wire = serialize(req);
  size_t pos = 0;
  auto readFn = [&](void* out, size_t n) {
    const size_t take = std::min(n, wire.size() - pos);
    memcpy(out, wire.data() + pos, take);
    pos += take;
    return take;
  };
  HttpRequest back;
  ASSERT_EQ(read_request_status(readFn, back), ReadStatus::kOk);
  EXPECT_EQ(back.method, "POST");
  EXPECT_EQ(back.path, "/orders?id=5");
  EXPECT_EQ(back.headers.at("Cookie"), "sid=abc");
  EXPECT_EQ(back.body, "payload");
}

TEST(Http, ResponseRoundTrip) {
  HttpResponse resp;
  resp.status = 404;
  resp.body = "nope";
  const std::string wire = serialize(resp);
  size_t pos = 0;
  auto readFn = [&](void* out, size_t n) {
    const size_t take = std::min(n, wire.size() - pos);
    memcpy(out, wire.data() + pos, take);
    pos += take;
    return take;
  };
  HttpResponse back;
  ASSERT_EQ(read_response_status(readFn, back), ReadStatus::kOk);
  EXPECT_EQ(back.status, 404);
  EXPECT_EQ(back.body, "nope");
}

TEST(Http, EofBeforeRequestReturnsFalse) {
  auto readFn = [](void*, size_t) -> size_t { return 0; };
  HttpRequest req;
  EXPECT_NE(read_request_status(readFn, req), ReadStatus::kOk);
}

TEST(TxSocketT, WritesDeferredToCommit) {
  auto listener = Network::instance().listen(8003);
  std::thread server([&] {
    Socket s = listener.accept();
    char buf[16] = {};
    size_t total = 0, n;
    while (total < 4 && (n = s.read(buf + total, sizeof(buf) - total)) > 0) total += n;
    EXPECT_EQ(std::string(buf, total), "data");
    s.close();
  });
  {
    TxSocket tx(Network::instance().connect(8003));
    run_sbd([&] {
      tx.write("data");
      // Deferred: the server has not seen anything yet; check buffered.
      EXPECT_EQ(tx.buffered_bytes(), 4u);
      split();  // commit flushes to the wire
      EXPECT_EQ(tx.buffered_bytes(), 0u);
    });
    tx.close();
  }
  server.join();
  listener.close();
}

TEST(TxSocketT, ReadsReplayedAfterAbort) {
  auto listener = Network::instance().listen(8004);
  std::thread server([&] {
    Socket s = listener.accept();
    s.write("abcdef", 6);
    s.close();
  });
  TxSocket tx(Network::instance().connect(8004));
  std::string first, retry;
  run_sbd([&] {
    static bool aborted;
    aborted = false;
    split();
    char buf[4] = {};
    size_t got = 0;
    while (got < 3) got += tx.read(buf + got, 3 - got);
    if (!aborted) {
      aborted = true;
      first.assign(buf, 3);
      core::abort_and_restart(core::tls_context());
    }
    retry.assign(buf, 3);
    split();
  });
  EXPECT_EQ(first, "abc");
  EXPECT_EQ(retry, "abc") << "B_R must replay consumed network input";
  run_sbd([&] {
    char buf[4] = {};
    size_t got = 0;
    while (got < 3) got += tx.read(buf + got, 3 - got);
    EXPECT_EQ(std::string(buf, 3), "def");
  });
  tx.close();
  server.join();
  listener.close();
}

// The whole request is on the wire before the section reads it, so
// every byte comes off the buffered (non-blocking) path: no read splits
// the section. An abort after the parse must replay exactly those bytes.
TEST(TxSocketT, BufferedRequestReplayedAfterAbort) {
  auto listener = Network::instance().listen(8005);
  HttpRequest req;
  req.method = "POST";
  req.path = "/txfer?from=1&to=2";
  req.headers["Host"] = "bench";
  req.body = "amount=7";
  const std::string wire = serialize(req);
  Socket server;
  std::thread acceptor([&] { server = listener.accept(); });
  TxSocket tx(Network::instance().connect(8005));
  acceptor.join();
  server.write(wire);
  ASSERT_EQ(tx.raw().available(), wire.size());
  std::string seen, first, retry;
  HttpRequest parsed;
  run_sbd([&] {
    static bool aborted;
    aborted = false;
    split();
    auto& tc = core::tls_context();
    const uint64_t commits = tc.stats.commits;
    seen.clear();
    parsed = HttpRequest();
    const ReadStatus st = read_request_status(
        [&](void* out, size_t n) {
          const size_t got = tx.read(out, n);
          seen.append(static_cast<const char*>(out), got);
          return got;
        },
        parsed);
    EXPECT_EQ(st, ReadStatus::kOk);
    EXPECT_EQ(tc.stats.commits, commits) << "a buffered read must not split";
    if (!aborted) {
      aborted = true;
      first = seen;
      core::abort_and_restart(tc);
    }
    retry = seen;
    split();
  });
  EXPECT_EQ(first, wire);
  EXPECT_EQ(retry, first) << "B_R must replay the buffered input byte for byte";
  EXPECT_EQ(parsed.path, req.path);
  EXPECT_EQ(parsed.body, req.body);
  EXPECT_EQ(tx.raw().available(), 0u);
  tx.close();
  server.close();
  listener.close();
}

TEST(SessionStoreT, CountsPerSession) {
  SessionStore store;
  EXPECT_EQ(store.bump("a"), 1);
  EXPECT_EQ(store.bump("a"), 2);
  EXPECT_EQ(store.bump("b"), 1);
  EXPECT_EQ(store.lookup("a"), 2);
  EXPECT_EQ(store.lookup("missing"), 0);
  EXPECT_EQ(store.size(), 2u);
}

TEST(StringManagerT, CacheBehavior) {
  StringManager cached(true);
  const std::string a = cached.status_message(200, "ok");
  EXPECT_EQ(cached.status_message(200, "ok"), a);
  EXPECT_EQ(cached.cache_size(), 1u);
  StringManager uncached(false);
  uncached.status_message(200, "ok");
  EXPECT_EQ(uncached.cache_size(), 0u);
}

}  // namespace
}  // namespace sbd::net
