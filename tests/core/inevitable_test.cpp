// Inevitable transactions (§3.4 alternative) and the §6 debug log.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "api/sbd.h"
#include "core/inevitable.h"
#include "core/obs.h"

namespace sbd {
namespace {

// Field map in every process mode: the deadlock tests below need
// writers that wait on each other, and a versioned writer aborts on a
// held word instead of waiting.
class Cell : public runtime::TypedRef<Cell> {
 public:
  using TypedRef::TypedRef;
  static runtime::ClassInfo* klass() {
    static runtime::ClassInfo* ci = runtime::register_class(
        "InevCell", {SBD_SLOT("v")}, {}, runtime::LockMap::field_map());
    return ci;
  }
  SBD_FIELD_I64(0, v)
};

TEST(Inevitable, TokenHeldUntilSectionEnd) {
  run_sbd([&] {
    EXPECT_FALSE(core::is_inevitable());
    core::become_inevitable();
    EXPECT_TRUE(core::is_inevitable());
    core::become_inevitable();  // idempotent
    EXPECT_TRUE(core::is_inevitable());
    split();
    EXPECT_FALSE(core::is_inevitable()) << "split must release the token";
  });
}

TEST(Inevitable, OnlyOneAtATime) {
  std::atomic<int> concurrent{0}, maxConcurrent{0};
  {
    std::vector<SbdThread> ts;
    for (int t = 0; t < 3; t++) {
      ts.emplace_back([&] {
        for (int i = 0; i < 30; i++) {
          core::become_inevitable();
          const int now = concurrent.fetch_add(1) + 1;
          int expected = maxConcurrent.load();
          while (now > expected && !maxConcurrent.compare_exchange_weak(expected, now)) {
          }
          std::this_thread::sleep_for(std::chrono::microseconds(100));
          concurrent.fetch_sub(1);
          split();  // releases the token
        }
      });
    }
    for (auto& t : ts) t.start();
    for (auto& t : ts) t.join();
  }
  EXPECT_EQ(maxConcurrent.load(), 1)
      << "at most one inevitable section may exist (paper 3.4)";
}

TEST(Inevitable, NeverChosenAsDeadlockVictim) {
  runtime::GlobalRoot<Cell> a, b;
  run_sbd([&] {
    Cell ca = Cell::alloc();
    ca.init_v(0);
    a.set(ca);
    Cell cb = Cell::alloc();
    cb.init_v(0);
    b.set(cb);
  });
  std::atomic<int> phase{0};
  {
    // The inevitable thread writes a then b; the plain thread writes
    // b then a. The cycle must always sacrifice the plain thread.
    SbdThread inevitableT([&] {
      core::become_inevitable();
      a.get().set_v(1);
      phase.fetch_add(1);
      while (phase.load() < 2) {
      }
      b.get().set_v(1);
      split();
    });
    SbdThread plainT([&] {
      b.get().set_v(2);
      phase.fetch_add(1);
      while (phase.load() < 2) {
      }
      a.get().set_v(2);  // deadlock: this thread must be the victim
      split();
    });
    inevitableT.start();
    plainT.start();
    inevitableT.join();
    plainT.join();
  }
  run_sbd([&] {
    // The inevitable section committed exactly once; values are from a
    // serializable order.
    const int64_t av = a.get().v(), bv = b.get().v();
    EXPECT_TRUE((av == 1 || av == 2) && (bv == 1 || bv == 2)) << av << " " << bv;
  });
}

TEST(DebugLogT, RecordsBlockedAndDeadlockEvents) {
  obs::set_enabled(true);
  obs::drain();
  runtime::GlobalRoot<Cell> a, b;
  run_sbd([&] {
    Cell ca = Cell::alloc();
    ca.init_v(0);
    a.set(ca);
    Cell cb = Cell::alloc();
    cb.init_v(0);
    b.set(cb);
  });
  std::atomic<int> phase{0};
  {
    SbdThread t1([&] {
      a.get().set_v(1);
      phase.fetch_add(1);
      while (phase.load() < 2) {
      }
      b.get().set_v(1);
    });
    SbdThread t2([&] {
      b.get().set_v(2);
      phase.fetch_add(1);
      while (phase.load() < 2) {
      }
      a.get().set_v(2);
    });
    t1.start();
    t2.start();
    t1.join();
    t2.join();
  }
  obs::set_enabled(false);
  const auto events = obs::drain();
  bool sawBlocked = false, sawDeadlock = false, sawAbort = false;
  for (const auto& e : events) {
    sawBlocked |= e.kind == obs::EventKind::kBlocked;
    sawDeadlock |= e.kind == obs::EventKind::kDeadlock;
    sawAbort |= e.kind == obs::EventKind::kAborted;
  }
  EXPECT_TRUE(sawBlocked);
  EXPECT_TRUE(sawDeadlock);
  EXPECT_TRUE(sawAbort);
  const std::string summary = obs::summarize(events);
  EXPECT_NE(summary.find("deadlocks"), std::string::npos);
  // Contention is attributed symbolically (class.field via the class
  // registry), not by recyclable raw lock-word address.
  EXPECT_NE(summary.find("InevCell.v"), std::string::npos) << summary;
}

TEST(DebugLogT, DisabledMeansFree) {
  obs::set_enabled(false);
  obs::drain();
  obs::record(obs::EventKind::kBlocked, 1, -1, nullptr, nullptr, obs::kNoIndex, false);
  EXPECT_EQ(obs::approx_size(), 0u);
}

}  // namespace
}  // namespace sbd
