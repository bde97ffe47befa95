// LockMap and the per-class map fixed at registration. ctest runs this
// binary under SBD_LOCK_GRANULARITY=field and again under the removed
// value striped:4, which must warn and run as field.
//
// Covers: the LockMap width/index algebra, lock_count/lock_index
// following the class map, a map passed to register_class overriding
// the process mode, and the Table 8 "Locks" gauge reporting semantic
// *mapped* bytes — not pooled capacity — per granularity (the
// MemorySampler reads the same gauge).
#include <gtest/gtest.h>

#include <vector>

#include "api/sbd.h"
#include "core/stats.h"
#include "runtime/object.h"

namespace sbd {
namespace {

using runtime::LockMap;

TEST(LockMap, WidthAndIndexPerKind) {
  const LockMap f = LockMap::field_map();
  EXPECT_TRUE(f.identity());
  EXPECT_EQ(f.width(6), 6u);
  EXPECT_EQ(f.index(5), 5u);

  const LockMap o = LockMap::object_map();
  EXPECT_FALSE(o.identity());
  EXPECT_EQ(o.width(6), 1u);
  EXPECT_EQ(o.width(0), 0u);  // lock-free stays lock-free
  EXPECT_EQ(o.index(5), 0u);

  const LockMap v = LockMap::versioned_map();
  EXPECT_EQ(v.width(6), 6u);
  EXPECT_EQ(v.index(5), 5u);
}

const std::vector<runtime::SlotDesc> kSixSlots = {
    SBD_SLOT("s0"), SBD_SLOT("s1"), SBD_SLOT("s2"),
    SBD_SLOT("s3"), SBD_SLOT("s4"), SBD_SLOT("s5")};

class Six : public runtime::TypedRef<Six> {
 public:
  SBD_CLASS(LockPlanSix, SBD_SLOT("s0"), SBD_SLOT("s1"), SBD_SLOT("s2"),
            SBD_SLOT("s3"), SBD_SLOT("s4"), SBD_SLOT("s5"))
  SBD_FIELD_I64(0, s0)
  SBD_FIELD_I64(5, s5)
};

// The same six slots, registered with a fixed map whatever the
// process mode.
class SixObject : public runtime::TypedRef<SixObject> {
 public:
  using TypedRef::TypedRef;
  static runtime::ClassInfo* klass() {
    static runtime::ClassInfo* ci = runtime::register_class(
        "LockPlanSixObject", kSixSlots, {}, LockMap::object_map());
    return ci;
  }
  SBD_FIELD_I64(0, s0)
  SBD_FIELD_I64(5, s5)
};
class SixVersioned : public runtime::TypedRef<SixVersioned> {
 public:
  using TypedRef::TypedRef;
  static runtime::ClassInfo* klass() {
    static runtime::ClassInfo* ci = runtime::register_class(
        "LockPlanSixVersioned", kSixSlots, {}, LockMap::versioned_map());
    return ci;
  }
  SBD_FIELD_I64(0, s0)
  SBD_FIELD_I64(5, s5)
};

template <typename T>
runtime::ManagedObject* make_published(runtime::GlobalRoot<T>& root) {
  run_sbd([&] {
    T x = T::alloc();
    x.init_s0(1);
    root.set(x);
  });
  return root.get().raw();
}

TEST(LockPlan, InstanceWidthFollowsTheClassMap) {
  runtime::GlobalRoot<Six> f;
  runtime::GlobalRoot<SixObject> o;
  runtime::GlobalRoot<SixVersioned> v;
  runtime::ManagedObject* fo = make_published(f);
  runtime::ManagedObject* oo = make_published(o);
  runtime::ManagedObject* vo = make_published(v);
  EXPECT_EQ(runtime::lock_count(fo), 6u);
  EXPECT_EQ(runtime::lock_index(fo, 5), 5u);
  EXPECT_EQ(runtime::lock_count(oo), 1u);
  EXPECT_EQ(runtime::lock_index(oo, 5), 0u);
  EXPECT_EQ(runtime::lock_count(vo), 6u);
  EXPECT_EQ(runtime::lock_index(vo, 5), 5u);
}

// One 6-slot class per granularity, so each case materializes fresh
// lock arrays.
class GaugeF : public runtime::TypedRef<GaugeF> {
 public:
  SBD_CLASS(LockPlanGaugeF, SBD_SLOT("s0"), SBD_SLOT("s1"), SBD_SLOT("s2"),
            SBD_SLOT("s3"), SBD_SLOT("s4"), SBD_SLOT("s5"))
  SBD_FIELD_I64(0, s0)
};
class GaugeO : public runtime::TypedRef<GaugeO> {
 public:
  using TypedRef::TypedRef;
  static runtime::ClassInfo* klass() {
    static runtime::ClassInfo* ci = runtime::register_class(
        "LockPlanGaugeO", kSixSlots, {}, LockMap::object_map());
    return ci;
  }
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
// rounded capacity.
TEST(LockPlan, Table8GaugeCountsMappedBytes) {
  runtime::GlobalRoot<GaugeF> f;
  runtime::GlobalRoot<GaugeO> o;
  make_published(f);
  make_published(o);
  EXPECT_EQ(materialized_bytes(f), 6 * sizeof(core::LockWord));
  EXPECT_EQ(materialized_bytes(o), 1 * sizeof(core::LockWord));
}

// A map passed to register_class wins over the process mode (field
// here) and stays: width, gauge column and map are those it was
// registered with, across committed writes.
TEST(LockPlan, RegisteredMapOverridesTheProcessMode) {
  ASSERT_EQ(runtime::process_lock_map(), LockMap::field_map());
  runtime::GlobalRoot<SixObject> o;
  runtime::GlobalRoot<SixVersioned> v;
  make_published(o);
  make_published(v);
  core::GlobalGauges& g = core::gauges();

  EXPECT_EQ(materialized_bytes(o), 1 * sizeof(core::LockWord));
  const uint64_t locksBefore = g.lockStructBytes.load();
  const uint64_t stampsBefore = g.versionWordBytes.load();
  run_sbd([&] { (void)v.get().s0(); });
  EXPECT_EQ(g.lockStructBytes.load(), locksBefore);
  EXPECT_EQ(g.versionWordBytes.load() - stampsBefore, 6 * sizeof(core::LockWord));

  run_sbd([&] {
    o.get().set_s5(2);
    v.get().set_s5(3);
    split();
    EXPECT_EQ(o.get().s5() + v.get().s5(), 5);
  });
  EXPECT_EQ(SixObject::klass()->lockMap, LockMap::object_map());
  EXPECT_EQ(SixVersioned::klass()->lockMap, LockMap::versioned_map());
  EXPECT_EQ(runtime::lock_count(o.get().raw()), 1u);
  EXPECT_EQ(runtime::lock_count(v.get().raw()), 6u);
}

TEST(LockPlan, FieldModeDefaultsAreFaithful) {
  // field (or an unknown value, which falls back to field): every class
  // without its own map starts on the identity map, bit-for-bit the
  // pre-LockMap runtime.
  EXPECT_EQ(runtime::process_lock_map(), LockMap::field_map());
  EXPECT_STREQ(runtime::process_lock_map().to_string(), "field");
  class Fresh : public runtime::TypedRef<Fresh> {
   public:
    SBD_CLASS(LockPlanFresh, SBD_SLOT("a"), SBD_SLOT("b"))
  };
  EXPECT_TRUE(Fresh::klass()->lockMap.identity());
}

}  // namespace
}  // namespace sbd
