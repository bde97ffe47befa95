#include "runtime/object.h"

#include "common/check.h"
#include "core/stats.h"
#include "runtime/lockpool.h"

namespace sbd::runtime {

namespace {

// Natural (pre-LockMap) lock count: one per slot, arrays one per
// element, byte arrays one per 64-byte block.
uint32_t natural_lock_count(const ManagedObject* o) {
  const ClassInfo* cls = o->h.cls;
  if (!cls->isArray) return cls->slotCount;
  const uint64_t len = o->array_length();
  if (cls->elemKind == ElemKind::kI8)
    return static_cast<uint32_t>((len + kI8LockStride - 1) / kI8LockStride);
  return static_cast<uint32_t>(len);
}

}  // namespace

uint32_t lock_count(const ManagedObject* o) {
  return o->h.cls->lockMap.width(natural_lock_count(o));
}

core::LockWord* materialize_locks(ManagedObject* o) {
  const uint32_t n = lock_count(o);
  SBD_CHECK_MSG(n > 0, "materializing locks for a lock-free instance");
  auto* fresh = LockPool::instance().acquire(n);
  core::LockWord* expected = kUnalloc;
  if (o->locks.compare_exchange_strong(expected, fresh, std::memory_order_acq_rel)) {
    // The gauge counts the semantic size (one word per MAPPED lock, so
    // coarse LockMaps report their real footprint) of LIVE structures
    // only — class rounding and pooled-free arrays are invisible,
    // keeping Table 8 byte-exact across the pool change. Versioned
    // stamp words are metadata of a different kind (no queues, no
    // member bits) and get their own Table 8 column.
    auto& gauge = o->h.cls->lockMap.versioned() ? core::gauges().versionWordBytes
                                                   : core::gauges().lockStructBytes;
    gauge.fetch_add(n * sizeof(core::LockWord), std::memory_order_relaxed);
    return fresh;
  }
  LockPool::instance().release(fresh, n);  // lost the race; use the winner's array
  return expected;
}

void publish_new_object(ManagedObject* o) {
  core::LockWord* expected = nullptr;
  o->locks.compare_exchange_strong(expected, kUnalloc, std::memory_order_acq_rel);
}

void release_locks(ManagedObject* o) {
  core::LockWord* lp = o->locks.load(std::memory_order_acquire);
  if (lp != nullptr && lp != kUnalloc) {
    const uint32_t n = lock_count(o);
    auto& gauge = o->h.cls->lockMap.versioned() ? core::gauges().versionWordBytes
                                                   : core::gauges().lockStructBytes;
    gauge.fetch_sub(n * sizeof(core::LockWord), std::memory_order_relaxed);
    LockPool::instance().release(lp, n);
  }
  o->locks.store(kUnalloc, std::memory_order_release);
}

}  // namespace sbd::runtime
