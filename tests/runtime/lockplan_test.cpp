// LockMap + lockplan, fixed modes (SBD_LOCK_GRANULARITY unset → field).
//
// Covers: the LockMap width/index/bits algebra, lock_count/lock_index
// following the class map, stop-the-world pins with the live-lock-state
// veto and the bounded stop, and the Table 8 "Locks" gauge reporting
// semantic *mapped* bytes — not pooled capacity — under all three
// granularities (the MemorySampler reads the same gauge).
#include <gtest/gtest.h>

#include <atomic>

#include "api/sbd.h"
#include "common/timing.h"
#include "core/stats.h"
#include "runtime/lockplan.h"
#include "runtime/object.h"

namespace sbd {
namespace {

using runtime::LockMap;

TEST(LockMap, WidthAndIndexPerKind) {
  const LockMap f = LockMap::field_map();
  EXPECT_TRUE(f.identity());
  EXPECT_EQ(f.width(6), 6u);
  EXPECT_EQ(f.index(5), 5u);

  const LockMap s = LockMap::striped_map(4);
  EXPECT_FALSE(s.identity());
  EXPECT_EQ(s.width(6), 4u);
  EXPECT_EQ(s.width(3), 3u);  // never wider than the natural count
  EXPECT_EQ(s.index(5), 1u);
  EXPECT_EQ(s.index(4), 0u);

  const LockMap o = LockMap::object_map();
  EXPECT_EQ(o.width(6), 1u);
  EXPECT_EQ(o.width(0), 0u);  // lock-free stays lock-free
  EXPECT_EQ(o.index(5), 0u);
}

TEST(LockMap, BitsRoundTripAndFieldPacksToZero) {
  // Zero-initialized ClassInfo::lockMapBits must mean "field".
  EXPECT_EQ(LockMap::field_map().bits(), 0u);
  for (const LockMap m : {LockMap::field_map(), LockMap::striped_map(7),
                          LockMap::object_map()}) {
    EXPECT_EQ(LockMap::from_bits(m.bits()), m) << m.to_string();
  }
  // Degenerate stripe counts clamp instead of dividing by zero.
  EXPECT_EQ(LockMap::striped_map(0).stripes, 1u);
}

class Six : public runtime::TypedRef<Six> {
 public:
  SBD_CLASS(LockPlanSix, SBD_SLOT("s0"), SBD_SLOT("s1"), SBD_SLOT("s2"),
            SBD_SLOT("s3"), SBD_SLOT("s4"), SBD_SLOT("s5"))
  SBD_FIELD_I64(0, s0)
  SBD_FIELD_I64(5, s5)
};

TEST(LockPlan, InstanceWidthFollowsTheClassMap) {
  runtime::GlobalRoot<Six> root;
  run_sbd([&] {
    Six x = Six::alloc();
    x.init_s0(1);
    root.set(x);
  });
  runtime::ManagedObject* o = root.get().raw();
  EXPECT_EQ(runtime::lock_count(o), 6u);
  EXPECT_EQ(runtime::lock_index(o, 5), 5u);

  EXPECT_TRUE(set_lock_granularity(Six::klass(), LockGranularity::kObject));
  EXPECT_EQ(runtime::lock_count(o), 1u);
  EXPECT_EQ(runtime::lock_index(o, 5), 0u);

  EXPECT_TRUE(set_lock_granularity(Six::klass(), LockGranularity::kStriped, 4));
  EXPECT_EQ(runtime::lock_count(o), 4u);
  EXPECT_EQ(runtime::lock_index(o, 5), 1u);

  // And back to the faithful default.
  EXPECT_TRUE(set_lock_granularity(Six::klass(), LockGranularity::kField));
  EXPECT_EQ(runtime::lock_count(o), 6u);
}

class VetoCell : public runtime::TypedRef<VetoCell> {
 public:
  SBD_CLASS(LockPlanVeto, SBD_SLOT("v"))
  SBD_FIELD_I64(0, v)
};

TEST(LockPlan, LiveLockStateVetoesThenRetrySucceeds) {
  runtime::GlobalRoot<VetoCell> root;
  const auto before = runtime::lockplan::counters();
  run_sbd([&] {
    VetoCell c = VetoCell::alloc();
    c.init_v(0);
    root.set(c);
    split();             // commit allocation; locks go lazy
    c.set_v(1);          // acquire the write lock -> live lock state
    // The word is held by this very transaction, so the switch must be
    // refused (a migration would drop the held lock on the floor).
    EXPECT_FALSE(set_lock_granularity(VetoCell::klass(), LockGranularity::kObject));
    EXPECT_TRUE(VetoCell::klass()->lock_map().identity());  // map unchanged
  });
  const auto mid = runtime::lockplan::counters();
  EXPECT_GT(mid.vetoed, before.vetoed);
  // The section committed and released the lock: a retry applies.
  EXPECT_TRUE(set_lock_granularity(VetoCell::klass(), LockGranularity::kObject));
  EXPECT_EQ(VetoCell::klass()->lock_map(), LockMap::object_map());
  EXPECT_GT(runtime::lockplan::counters().replans, mid.replans);
}

// An SBD-attached thread that spins on a plain atomic: it performs no
// SBD access, so it never polls a safepoint — a deterministic wedge.
// The constructor waits until the thread is attached AND inside the
// spin loop; a stop-the-world begun before registration would not see
// the thread and succeed vacuously.
struct WedgedMutator {
  std::atomic<bool> spin{true};
  std::atomic<bool> started{false};
  SbdThread thread;
  WedgedMutator()
      : thread([this] {
          started.store(true, std::memory_order_release);
          while (spin.load(std::memory_order_acquire)) {
          }
        }) {
    thread.start();
    while (!started.load(std::memory_order_acquire)) {
    }
  }
  ~WedgedMutator() {
    spin.store(false, std::memory_order_release);
    thread.join();
  }
};

TEST(LockPlan, PinGivesUpWhenTheWorldCannotStop) {
  runtime::ClassInfo* ci =
      runtime::register_class("LockPlanWedged", {SBD_SLOT("a"), SBD_SLOT("b")});
  const auto before = runtime::lockplan::counters();
  {
    WedgedMutator wedge;
    const uint64_t t0 = now_nanos();
    EXPECT_FALSE(set_lock_granularity(ci, LockGranularity::kObject));
    EXPECT_LT(now_nanos() - t0, 2 * runtime::lockplan::kPinStopBudgetNanos)
        << "the stop must give up at its budget";
  }
  EXPECT_TRUE(ci->lock_map().identity());  // map unchanged
  EXPECT_GT(runtime::lockplan::counters().wedged, before.wedged);
}

// One 6-slot class per granularity — granularity pins are per-class
// state, so each case needs a fresh ClassInfo.
class GaugeF : public runtime::TypedRef<GaugeF> {
 public:
  SBD_CLASS(LockPlanGaugeF, SBD_SLOT("s0"), SBD_SLOT("s1"), SBD_SLOT("s2"),
            SBD_SLOT("s3"), SBD_SLOT("s4"), SBD_SLOT("s5"))
  SBD_FIELD_I64(0, s0)
};
class GaugeS : public runtime::TypedRef<GaugeS> {
 public:
  SBD_CLASS(LockPlanGaugeS, SBD_SLOT("s0"), SBD_SLOT("s1"), SBD_SLOT("s2"),
            SBD_SLOT("s3"), SBD_SLOT("s4"), SBD_SLOT("s5"))
  SBD_FIELD_I64(0, s0)
};
class GaugeO : public runtime::TypedRef<GaugeO> {
 public:
  SBD_CLASS(LockPlanGaugeO, SBD_SLOT("s0"), SBD_SLOT("s1"), SBD_SLOT("s2"),
            SBD_SLOT("s3"), SBD_SLOT("s4"), SBD_SLOT("s5"))
  SBD_FIELD_I64(0, s0)
};

// Materializes root's lock array (first synchronized access after the
// creating section committed) and returns the gauge growth in bytes.
template <typename T>
uint64_t materialized_bytes(runtime::GlobalRoot<T>& root) {
  const uint64_t before = core::gauges().lockStructBytes.load();
  run_sbd([&] { (void)root.get().s0(); });
  return core::gauges().lockStructBytes.load() - before;
}

// Table 8 "Locks" audit: the gauge reports one word per MAPPED lock —
// the semantic footprint the paper's table counts — not the pool's
// rounded capacity, under all three granularities.
TEST(LockPlan, Table8GaugeCountsMappedBytes) {
  runtime::GlobalRoot<GaugeF> f;
  runtime::GlobalRoot<GaugeS> s;
  runtime::GlobalRoot<GaugeO> o;
  ASSERT_TRUE(set_lock_granularity(GaugeS::klass(), LockGranularity::kStriped, 4));
  ASSERT_TRUE(set_lock_granularity(GaugeO::klass(), LockGranularity::kObject));
  run_sbd([&] {
    GaugeF a = GaugeF::alloc();
    a.init_s0(0);
    f.set(a);
    GaugeS b = GaugeS::alloc();
    b.init_s0(0);
    s.set(b);
    GaugeO c = GaugeO::alloc();
    c.init_s0(0);
    o.set(c);
  });
  EXPECT_EQ(materialized_bytes(f), 6 * sizeof(core::LockWord));
  EXPECT_EQ(materialized_bytes(s), 4 * sizeof(core::LockWord));
  EXPECT_EQ(materialized_bytes(o), 1 * sizeof(core::LockWord));

  // A pin releases the survivors' arrays under the OLD map, so the
  // gauge stays byte-exact across the swap: the field-width bytes come
  // off now and the object-width bytes go on at next materialization.
  const uint64_t before = core::gauges().lockStructBytes.load();
  ASSERT_TRUE(set_lock_granularity(GaugeF::klass(), LockGranularity::kObject));
  EXPECT_EQ(before - core::gauges().lockStructBytes.load(),
            6 * sizeof(core::LockWord));
  EXPECT_EQ(materialized_bytes(f), 1 * sizeof(core::LockWord));
}

TEST(LockPlan, FieldModeDefaultsAreFaithful) {
  // This binary runs with SBD_LOCK_GRANULARITY=field: every class
  // starts on the identity map, bit-for-bit the pre-LockMap runtime.
  EXPECT_EQ(runtime::lockplan::mode(), runtime::lockplan::Mode::kField);
  EXPECT_STREQ(runtime::lockplan::mode_name(), "field");
  EXPECT_EQ(runtime::lockplan::initial_map(), LockMap::field_map());
  class Fresh : public runtime::TypedRef<Fresh> {
   public:
    SBD_CLASS(LockPlanFresh, SBD_SLOT("a"), SBD_SLOT("b"))
  };
  EXPECT_TRUE(Fresh::klass()->lock_map().identity());
}

}  // namespace
}  // namespace sbd
