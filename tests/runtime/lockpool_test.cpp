// Lock-structure pool: recycling through the GC sweep, exact Table 8
// "Locks" gauge accounting (semantic bytes of live structures only —
// class rounding and pooled-free arrays must be invisible), and the
// pool-bypass path for huge arrays.
#include <gtest/gtest.h>

#include <cstdint>

#include "api/sbd.h"
#include "core/stats.h"
#include "runtime/heap.h"
#include "runtime/lockpool.h"
#include "runtime/object.h"
#include "runtime/ref.h"

namespace sbd::runtime {
namespace {

uint64_t locks_gauge() { return core::gauges().lockStructBytes.load(); }

TEST(LockPool, AcquireZeroesReusedArrays) {
  auto& pool = LockPool::instance();
  core::LockWord* a = pool.acquire(5);
  for (int i = 0; i < 5; i++) {
    EXPECT_EQ(a[i], 0u);
    a[i] = 0xdeadbeefULL + static_cast<uint64_t>(i);  // dirty it
  }
  pool.release(a, 5);
  // Same size class (5 -> 8 words): the freelist hands the array back,
  // and every requested word must be zero again.
  core::LockWord* b = pool.acquire(5);
  for (int i = 0; i < 5; i++) EXPECT_EQ(b[i], 0u);
  pool.release(b, 5);
}

TEST(LockPool, ReusesArraysAcrossReleaseAcquire) {
  auto& pool = LockPool::instance();
  const auto before = pool.stats();
  core::LockWord* a = pool.acquire(16);
  pool.release(a, 16);
  core::LockWord* b = pool.acquire(16);  // exact class: must come from the list
  pool.release(b, 16);
  const auto after = pool.stats();
  EXPECT_GT(after.reuses, before.reuses);
}

TEST(LockPool, GaugeCountsSemanticBytesNotClassRounding) {
  // A 5-slot object occupies the 8-word size class, but Table 8 must
  // see exactly 5 * 8 = 40 bytes while it is live.
  static ClassInfo* cls = register_class(
      "FiveSlots", {SBD_SLOT("a"), SBD_SLOT("b"), SBD_SLOT("c"), SBD_SLOT("d"),
                    SBD_SLOT("e")}, {});
  const uint64_t before = locks_gauge();
  run_sbd([&] {
    ManagedObject* o = Heap::instance().alloc_object(cls);
    split();  // escape: the next access materializes the lock array
    (void)tx_read(o, 0);
    EXPECT_EQ(locks_gauge(), before + 5 * sizeof(core::LockWord));
  });
  Heap::instance().collect();  // the object is garbage: sweep frees its locks
  Heap::instance().collect();
  // Conservative stack slack may retain a stray object, but pooled-free
  // arrays must not count as live (seed tolerance idiom).
  EXPECT_LE(locks_gauge(), before + 1024);
}

TEST(LockPool, SweepReturnsArraysToPoolForReuse) {
  static ClassInfo* cls = register_class("PoolNode", {SBD_SLOT("x")}, {});
  auto& pool = LockPool::instance();
  const uint64_t gaugeBefore = locks_gauge();

  // Round 1: materialize locks on short-lived objects, then let the GC
  // sweep them — their arrays land on the pool freelists.
  run_sbd([&] {
    for (int i = 0; i < 32; i++) {
      ManagedObject* o = Heap::instance().alloc_object(cls);
      split();
      (void)tx_read(o, 0);
      split();
    }
  });
  Heap::instance().collect();
  Heap::instance().collect();
  EXPECT_LE(locks_gauge(), gaugeBefore + 1024);
  const auto parked = pool.stats();
  EXPECT_GT(parked.pooledArrays, 0u) << "sweep should park dead objects' arrays";

  // Round 2: the same shape allocates again; acquires are served from
  // the freelist instead of the allocator.
  const auto statsBefore = pool.stats();
  run_sbd([&] {
    ManagedObject* o = Heap::instance().alloc_object(cls);
    split();
    (void)tx_read(o, 0);
  });
  const auto statsAfter = pool.stats();
  EXPECT_GT(statsAfter.reuses, statsBefore.reuses);
  Heap::instance().collect();
  Heap::instance().collect();
  EXPECT_LE(locks_gauge(), gaugeBefore + 1024);
}

TEST(LockPool, HugeArraysBypassThePoolButKeepTheGaugeExact) {
  // 300k elements -> 300k lock words, far over the 1024-word pool cap.
  // Collect first: an earlier test's lock array, still pinned by a stale
  // stack word, would otherwise be swept during this test and leave the
  // gauge below its baseline.
  Heap::instance().collect();
  Heap::instance().collect();
  const uint64_t before = locks_gauge();
  run_sbd([&] {
    I64Array big = I64Array::make(300000);
    split();
    big.set(0, 1);  // materializes the element lock array
    EXPECT_EQ(locks_gauge(), before + 300000ull * sizeof(core::LockWord));
  });
  Heap::instance().collect();
  Heap::instance().collect();
  EXPECT_EQ(locks_gauge(), before);
}

TEST(LockPool, TrimFreesParkedArrays) {
  auto& pool = LockPool::instance();
  core::LockWord* a = pool.acquire(8);
  pool.release(a, 8);
  EXPECT_GT(pool.stats().pooledArrays, 0u);
  pool.trim();
  EXPECT_EQ(pool.stats().pooledArrays, 0u);
  EXPECT_EQ(pool.stats().pooledBytes, 0u);
}

}  // namespace
}  // namespace sbd::runtime
