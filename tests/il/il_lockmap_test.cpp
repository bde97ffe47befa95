// LockMap-aware redundant-lock elimination (O1 + the static class
// annotation): when the instruction's declared class has a coarse
// LockMap (fixed at registration), locks on *different* slots that
// share a lock word dedupe statically — growing the Table 7
// elimination counts — but only READ locks may be eliminated through
// the map (a write lock also owns the undo logging for its slot).
//
// ctest runs this binary under SBD_LOCK_GRANULARITY=field and object;
// the named classes pass their own maps, the array classes follow the
// process mode.
#include <gtest/gtest.h>

#include "api/sbd.h"
#include "il/interp.h"
#include "il/opt.h"
#include "il/transform.h"
#include "il/verify.h"

namespace sbd::il {
namespace {

runtime::ClassInfo* object_cls() {
  static runtime::ClassInfo* ci = runtime::register_class(
      "ILMapObj", {SBD_SLOT("a"), SBD_SLOT("b"), SBD_SLOT("c")}, {},
      runtime::LockMap::object_map());
  return ci;
}

runtime::ClassInfo* field_cls() {
  static runtime::ClassInfo* ci = runtime::register_class(
      "ILMapField", {SBD_SLOT("a"), SBD_SLOT("b")}, {}, runtime::LockMap::field_map());
  return ci;
}

TEST(IlLockMap, ObjectMapDedupesReadLocksAcrossSlots) {
  Module m;
  FnBuilder fb(m, "rd", 1, 4);
  fb.getf(1, 0, 0, object_cls());
  fb.getf(2, 0, 1, object_cls());  // different slot, same lock word
  fb.bin(3, BinOp::kAdd, 1, 2);
  fb.ret(3);
  insert_locks(m);
  ASSERT_EQ(count_ops(*m.get("rd"), Op::kLock), 2);
  const auto stats = eliminate_redundant_locks(m);
  EXPECT_EQ(stats.locksEliminated, 1);
  EXPECT_EQ(count_ops(*m.get("rd"), Op::kLock), 1);
  // The deduped code still reads correctly through the real STM.
  run_sbd([&] {
    auto* o = runtime::Heap::instance().alloc_object(object_cls());
    runtime::init_write(o, 0, 19);
    runtime::init_write(o, 1, 23);
    split();  // escape: accesses below go through the lock path
    EXPECT_EQ(execute(m, "rd", {reinterpret_cast<int64_t>(o)}), 42);
  });
}

TEST(IlLockMap, WriteLocksAreNeverMapEliminated) {
  Module m;
  FnBuilder fb(m, "wr", 1, 2);
  fb.cst(1, 7);
  fb.setf(0, 0, 1, object_cls());
  fb.setf(0, 1, 1, object_cls());  // shares the word, but keeps its lock:
                                   // the second write's undo entry comes
                                   // from its own acquire
  fb.ret();
  insert_locks(m);
  ASSERT_EQ(count_ops(*m.get("wr"), Op::kLock), 2);
  const auto stats = eliminate_redundant_locks(m);
  EXPECT_EQ(stats.locksEliminated, 0);
  EXPECT_EQ(count_ops(*m.get("wr"), Op::kLock), 2);
}

TEST(IlLockMap, MappedWriteCoversALaterRead) {
  Module m;
  FnBuilder fb(m, "wr_rd", 1, 3);
  fb.cst(1, 5);
  fb.setf(0, 0, 1, object_cls());
  fb.getf(2, 0, 1, object_cls());  // read lock: covered by the held word
  fb.ret(2);
  insert_locks(m);
  const auto stats = eliminate_redundant_locks(m);
  EXPECT_EQ(stats.locksEliminated, 1);
  EXPECT_EQ(count_ops(*m.get("wr_rd"), Op::kLock), 1);
  run_sbd([&] {
    auto* o = runtime::Heap::instance().alloc_object(object_cls());
    runtime::init_write(o, 0, 0);
    runtime::init_write(o, 1, 42);
    split();
    EXPECT_EQ(execute(m, "wr_rd", {reinterpret_cast<int64_t>(o)}), 42);
    EXPECT_EQ(static_cast<int64_t>(runtime::tx_read(o, 0)), 5);
  });
}

TEST(IlLockMap, NoAnnotationMeansNoCrossSlotDedupe) {
  Module m;
  FnBuilder fb(m, "rd", 1, 4);
  fb.getf(1, 0, 0);  // cls unknown: the optimizer cannot consult a map
  fb.getf(2, 0, 1);
  fb.bin(3, BinOp::kAdd, 1, 2);
  fb.ret(3);
  insert_locks(m);
  const auto stats = eliminate_redundant_locks(m);
  EXPECT_EQ(stats.locksEliminated, 0);
  EXPECT_EQ(count_ops(*m.get("rd"), Op::kLock), 2);
}

TEST(IlLockMap, FieldMapKeepsPerSlotLocks) {
  Module m;
  FnBuilder fb(m, "rd", 1, 4);
  fb.getf(1, 0, 0, field_cls());
  fb.getf(2, 0, 1, field_cls());  // identity map: distinct words
  fb.getf(3, 0, 0, field_cls());  // same slot: plain O1 still fires
  fb.ret(3);
  insert_locks(m);
  const auto stats = eliminate_redundant_locks(m);
  EXPECT_EQ(stats.locksEliminated, 1);
  EXPECT_EQ(count_ops(*m.get("rd"), Op::kLock), 2);
}

TEST(IlLockMap, ElementDedupeFollowsTheArrayClassMap) {
  // Element locks have a dynamic index, so only an object map (every
  // index -> word 0) supports cross-element dedupe. The i64 array class
  // runs under the process mode: two element locks under field, one
  // under object.
  auto* arr = runtime::array_class(runtime::ElemKind::kI64);
  const bool objectMapped = arr->lockMap == runtime::LockMap::object_map();
  ASSERT_EQ(arr->lockMap, runtime::process_lock_map());
  Module m;
  FnBuilder fb(m, "sum2", 3, 6);
  fb.gete(3, 0, 1, arr);
  fb.gete(4, 0, 2, arr);
  fb.bin(5, BinOp::kAdd, 3, 4);
  fb.ret(5);
  insert_locks(m);
  const auto stats = eliminate_redundant_locks(m);
  EXPECT_EQ(stats.locksEliminated, objectMapped ? 1 : 0);
  EXPECT_EQ(count_ops(*m.get("sum2"), Op::kLock), objectMapped ? 1 : 2);
  // Either way the code sums correctly through the real STM.
  run_sbd([&] {
    I64Array a = I64Array::make(3);
    a.init_set(1, 19);
    a.init_set(2, 23);
    split();
    EXPECT_EQ(execute(m, "sum2", {reinterpret_cast<int64_t>(a.raw()), 1, 2}), 42);
  });
}

}  // namespace
}  // namespace sbd::il
