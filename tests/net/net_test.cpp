// Loopback network, HTTP framing, transactional sockets.
#include <gtest/gtest.h>

#include <thread>

#include "api/sbd.h"
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
