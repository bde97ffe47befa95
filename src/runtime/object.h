// Managed instance layout — Figure 4(a) of the paper.
//
//   +-----------------+
//   | header (class,  |
//   |  size, flags)   |
//   +-----------------+
//   | locks  ---------+--> lazily allocated array of 64-bit lock words,
//   +-----------------+    one per non-final field / array element group
//   | slot 0          |
//   | slot 1          |
//   | ...             |
//   +-----------------+
//
// locks == nullptr  : instance is new in the current transaction —
//                     accesses need no locking, only the null check.
// locks == kUnalloc : instance escaped its creating transaction but no
//                     lock structure has been needed yet (lazy alloc).
// otherwise         : pointer to the lock-word array.
#pragma once

#include <atomic>
#include <cstdint>

#include "core/fwd.h"
#include "runtime/class_info.h"

namespace sbd::runtime {

// Sentinel for "escaped but lock structures not yet allocated".
// A constant non-null, non-dereferenceable pointer (paper Fig. 5).
inline core::LockWord* const kUnalloc = reinterpret_cast<core::LockWord*>(0x8);

inline constexpr uint32_t kFlagMark = 1u << 0;
// Byte arrays: one lock word per 8 data bytes, so the lock granule and
// the 8-byte undo granule coincide (a coarser stride would need
// multi-word undo logging on repeat writes under an owned lock).
inline constexpr uint32_t kI8LockStride = 8;

struct ObjHeader {
  ClassInfo* cls;
  uint32_t sizeBytes;  // total allocation size including the header
  uint32_t flags;
};

struct ManagedObject {
  ObjHeader h;
  std::atomic<core::LockWord*> locks;
  // payload follows:
  //   plain object: uint64_t slots[cls->slotCount]
  //   array:        uint64_t length; then elements

  uint64_t* slots() { return reinterpret_cast<uint64_t*>(this + 1); }
  const uint64_t* slots() const { return reinterpret_cast<const uint64_t*>(this + 1); }

  bool is_array() const { return h.cls->isArray; }

  uint64_t array_length() const { return slots()[0]; }
  uint64_t* array_data() { return slots() + 1; }
  const uint64_t* array_data() const { return slots() + 1; }
  int8_t* array_data_i8() { return reinterpret_cast<int8_t*>(slots() + 1); }
  const int8_t* array_data_i8() const {
    return reinterpret_cast<const int8_t*>(slots() + 1);
  }

  bool marked() const { return (h.flags & kFlagMark) != 0; }
  void set_mark() { h.flags |= kFlagMark; }
  void clear_mark() { h.flags &= ~kFlagMark; }
};

static_assert(sizeof(ManagedObject) == 24, "layout assumption of the lock fast path");

// Number of lock words the instance needs when its lock structure is
// materialized: the class's LockMap width over the natural count (one
// per slot; arrays one per element, byte arrays one per 64-byte
// block). Under the default field map this is the natural count.
uint32_t lock_count(const ManagedObject* o);

// Natural (pre-LockMap) lock index of `slot`: the slot itself, byte
// arrays one per 64-byte block.
inline uint32_t natural_lock_index(const ManagedObject* o, uint64_t slot) {
  if (o->h.cls->isArray && o->h.cls->elemKind == ElemKind::kI8)
    return static_cast<uint32_t>(slot / kI8LockStride);
  return static_cast<uint32_t>(slot);
}

// Lock-word index covering `slot` (field index or array element
// index): the class's LockMap image of the natural index. Inline: it
// sits on every owned check of the Fig. 5 fast path.
inline uint32_t lock_index(const ManagedObject* o, uint64_t slot) {
  return o->h.cls->lockMap.index(natural_lock_index(o, slot));
}

// Lazily allocates the lock structure of `o` (paper Fig. 5 step 2).
// Returns the winning pointer; increments the Table 8 "Locks" gauge.
core::LockWord* materialize_locks(ManagedObject* o);

// Called by the STM commit for each init-log entry (§3.3): flips
// locks from nullptr (new in this txn) to kUnalloc (escaped, lazy).
void publish_new_object(ManagedObject* o);

// Frees the lock structure (GC sweep); adjusts the gauge.
void release_locks(ManagedObject* o);

}  // namespace sbd::runtime
