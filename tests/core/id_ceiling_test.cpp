// The 56-transaction-id ceiling (§3.3): more threads than ids must
// still make progress — threads block waiting for a free id at section
// start, and id-releasing waits (join, condition wait, blocking reads)
// keep the system live. This is the mechanism behind the paper's
// Tomcat-at-32+32-threads observation.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "api/sbd.h"
#include "core/ids.h"
#include "core/obs.h"
#include "core/watchdog.h"

namespace sbd {
namespace {

class Counter : public runtime::TypedRef<Counter> {
 public:
  SBD_CLASS(CeilCounter, SBD_SLOT("n"))
  SBD_FIELD_I64(0, n)
};

TEST(IdCeiling, MoreThreadsThanIdsAllComplete) {
  constexpr int kThreads = core::kMaxTxns + 8;  // 64 > 56
  runtime::GlobalRoot<Counter> total;
  run_sbd([&] {
    Counter c = Counter::alloc();
    c.init_n(0);
    total.set(c);
  });
  std::atomic<int> finished{0};
  {
    std::vector<SbdThread> ts;
    for (int t = 0; t < kThreads; t++) {
      ts.emplace_back([&] {
        for (int i = 0; i < 5; i++) {
          Counter c = total.get();
          c.set_n(c.n() + 1);
          split();
        }
        finished++;
      });
    }
    for (auto& t : ts) t.start();
    for (auto& t : ts) t.join();
  }
  EXPECT_EQ(finished.load(), kThreads);
  run_sbd([&] { EXPECT_EQ(total.get().n(), kThreads * 5); });
}

TEST(IdCeiling, PoolFullyFreeOutsideSections) {
  // No atomic section is active in this thread or any other at this
  // point, so every id is back in the pool.
  auto& pool = core::TxnManager::instance().id_pool();
  EXPECT_EQ(pool.available(), core::kMaxTxns);
  // And inside a section, exactly one id is taken.
  run_sbd([&] { EXPECT_EQ(pool.available(), core::kMaxTxns - 1); });
  EXPECT_EQ(pool.available(), core::kMaxTxns);
}

TEST(IdCeiling, WaitersReleaseIdsForProducers) {
  // A consumer waiting on a condition releases its id (§3.5), so a
  // producer can always acquire one even at the ceiling — the liveness
  // rule the paper states for the id pool.
  runtime::GlobalRoot<Counter> cond;
  run_sbd([&] {
    Counter c = Counter::alloc();
    c.init_n(0);
    cond.set(c);
  });
  std::atomic<bool> consumerDone{false};
  {
    SbdThread consumer([&] {
      Counter c = cond.get();
      while (c.n() == 0) {
        wait_on(c.raw());  // splits AND releases the id while blocked
      }
      consumerDone = true;
    });
    SbdThread producer([&] {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      Counter c = cond.get();
      c.set_n(1);
      notify_all(c.raw());
      split();
    });
    consumer.start();
    producer.start();
    consumer.join();
    producer.join();
  }
  EXPECT_TRUE(consumerDone.load());
}

TEST(IdCeiling, AcquireForTimesOutAndDiagnosesOnExhaustion) {
  // A private pool, drained dry: acquire_for must come back with -1
  // after its slice instead of blocking invisibly, and the diagnostic
  // snapshot must say why.
  core::TxnIdPool pool;
  std::vector<int> held;
  for (int i = 0; i < core::kMaxTxns; i++) {
    const int id = pool.try_acquire();
    ASSERT_GE(id, 0);
    held.push_back(id);
  }
  EXPECT_EQ(pool.available(), 0);
  EXPECT_EQ(pool.try_acquire(), -1);
  EXPECT_EQ(pool.acquire_for(2'000'000), -1);  // 2 ms slice, pool stays dry
  EXPECT_NE(pool.diagnose().find("0/" + std::to_string(core::kMaxTxns)),
            std::string::npos);

  // A waiter parked in acquire_for shows up in waiters()/diagnose() and
  // is released the moment an id comes back.
  std::thread waiter([&] {
    const int id = pool.acquire_for(10'000'000'000);  // 10 s — must not be needed
    EXPECT_GE(id, 0);
    pool.release(id);
  });
  while (pool.waiters() == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  EXPECT_NE(pool.diagnose().find("1 waiting"), std::string::npos);
  pool.release(held.back());
  held.pop_back();
  waiter.join();
  for (int id : held) pool.release(id);
  EXPECT_EQ(pool.available(), core::kMaxTxns);
  EXPECT_EQ(pool.waiters(), 0);
}

TEST(IdCeiling, WatchdogReportsIdPoolStallUnderPressure) {
  // More threads than ids, all pinning their id (no split, no
  // id-releasing wait): the surplus threads block at section start, and
  // the watchdog must surface that as an id-pool stall.
  constexpr int kThreads = core::kMaxTxns + 2;
  core::Watchdog::Options o;
  o.stallThresholdNanos = 30'000'000;  // 30 ms
  o.pollIntervalNanos = 10'000'000;    // 10 ms
  o.abortVictimAfterNanos = 0;         // id waiters have no section to abort
  o.logToStderr = false;
  core::Watchdog::start(o);
  const uint64_t before = core::Watchdog::stalls_detected();
  obs::drain();
  obs::set_enabled(true);
  std::atomic<bool> release{false};
  {
    std::vector<SbdThread> ts;
    for (int t = 0; t < kThreads; t++) {
      ts.emplace_back([&] {
        // Holds the section (and its txn id) until the main thread has
        // seen the stall.
        while (!release) std::this_thread::sleep_for(std::chrono::milliseconds(1));
      });
    }
    for (auto& t : ts) t.start();
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (core::Watchdog::stalls_detected() == before &&
           std::chrono::steady_clock::now() < deadline)
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    release = true;
    for (auto& t : ts) t.join();
  }
  obs::set_enabled(false);
  core::Watchdog::stop();
  EXPECT_GT(core::Watchdog::stalls_detected(), before)
      << "surplus threads blocked on the id pool must be reported";
  bool sawIdStall = false;
  for (const auto& e : obs::drain())
    if (e.kind == obs::EventKind::kIdPoolStall) sawIdStall = true;
  EXPECT_TRUE(sawIdStall) << "the stall must be logged as an id-pool stall";
}

}  // namespace
}  // namespace sbd
