// End-to-end oracle check: a real 2-thread SBD run — transfers with
// read->write upgrades, splits, and injected CAS failures plus
// split-aborts — recorded under full trace and proven serializable by
// the happens-before checker. Registered once per lock-granularity
// mode in tests/CMakeLists.txt (the mode is parsed once per process),
// so the same invariant holds under field, object, and versioned
// maps.
#include <gtest/gtest.h>

#include <cstdint>

#include "analyzer/oracle.h"
#include "api/sbd.h"
#include "common/rng.h"
#include "core/fault.h"
#include "core/obs.h"

namespace sbd {
namespace {

class Acct : public runtime::TypedRef<Acct> {
 public:
  SBD_CLASS(OracleAcct, SBD_SLOT("bal"))
  SBD_FIELD_I64(0, bal)
};

TEST(OracleE2E, SeededChaosRunIsOracleClean) {
  constexpr int kAccounts = 8;
  constexpr int64_t kInitial = 500;
  constexpr int kThreads = 2;
  constexpr int kTransfers = 40;

  obs::set_enabled(true);
  obs::drain();  // start from empty rings
  const uint64_t droppedBefore = obs::dropped();
  obs::set_full_trace(true);

  fault::FaultPlan plan;
  plan.seed = 0x5eed0e2e;
  plan.delayNanos = 5'000;
  plan.with(fault::Site::kSplitAbort, 0.1).with(fault::Site::kLockCas, 0.2);
  fault::PlanScope scope{plan};

  runtime::GlobalRoot<runtime::RefArray<Acct>> accounts;
  run_sbd([&] {
    auto arr = runtime::RefArray<Acct>::make(kAccounts);
    for (int i = 0; i < kAccounts; i++) {
      Acct a = Acct::alloc();
      a.init_bal(kInitial);
      arr.init_set(static_cast<uint64_t>(i), a);
    }
    accounts.set(arr);
  });

  {
    std::vector<SbdThread> ts;
    for (int t = 0; t < kThreads; t++) {
      ts.emplace_back([&, t] {
        Rng rng(mix64(0xe2eull + static_cast<uint64_t>(t)));
        for (int i = 0; i < kTransfers; i++) {
          const auto from = rng.below(kAccounts);
          uint64_t to = rng.below(kAccounts);
          if (to == from) to = (to + 1) % kAccounts;
          const int64_t amount = 1 + static_cast<int64_t>(rng.below(9));
          Acct a = accounts.get().get(from);
          Acct b = accounts.get().get(to);
          if (a.bal() >= amount) {  // read, then write: upgrade path
            a.set_bal(a.bal() - amount);
            b.set_bal(b.bal() + amount);
          }
          split();
        }
      });
    }
    for (auto& t : ts) t.start();
    for (auto& t : ts) t.join();
  }

  int64_t total = 0;
  run_sbd([&] {
    for (int i = 0; i < kAccounts; i++)
      total += accounts.get().get(static_cast<uint64_t>(i)).bal();
  });
  EXPECT_EQ(total, kAccounts * kInitial);

  obs::set_full_trace(false);
  const auto events = obs::drain();
  obs::set_enabled(false);
  const uint64_t dropped = obs::dropped() - droppedBefore;
  EXPECT_EQ(dropped, 0u) << "ring overflow would blind the oracle";

  const std::vector<oracle::Rec> recs = oracle::from_obs(events);
  const oracle::Report rep = oracle::check(recs, dropped);
  EXPECT_TRUE(rep.ok()) << oracle::summary_line(rep) << "\n"
                        << oracle::format_windows(recs, rep);
  EXPECT_GT(rep.acquires, 0u);
  EXPECT_GT(rep.releases, 0u);
  EXPECT_GT(rep.commits, 0u) << "full trace must carry commit-order events";
}

}  // namespace
}  // namespace sbd
