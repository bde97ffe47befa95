// The synchronized field/array-element access fast path — the C++
// rendering of the paper's Figure 5 locking operation, with the Table 1
// synchronization matrix:
//
//   access type                         check  lock  undo
//   non-final field / array element       x      x     x
//   final field                           -      -     -
//   new (this-txn) field / element        x      -     -
//   local variable (canSplit)             -      -     x   (via checkpoint)
//   local variable (no canSplit)          -      -     -
//
// Steps (Fig. 5): (1) locks == nullptr -> instance is new, access
// directly; (2) locks == UNALLOC -> lazily materialize the lock array;
// (3) lock word & txn mask != 0 -> already owned; (4) otherwise acquire
// (CAS fast path, fair queue slow path) and log undo on writes.
//
// Every accessor comes in two forms: the primary one takes the caller's
// cached ThreadContext& (one tls_context() per operation batch, the way
// the paper's JIT pins the environment pointer in a register), and a
// thin compatibility wrapper that resolves the TLS itself.
#pragma once

#include <bit>
#include <cstring>

#include "common/check.h"
#include "core/lockword.h"
#include "core/transaction.h"
#include "runtime/object.h"

namespace sbd::runtime {

namespace detail {

// Periodic GC-cooperation poll folded into the access fast path (the
// JVM the paper builds on has the same polls emitted by its JIT).
inline void maybe_poll(core::ThreadContext& tc) {
  if (tc.pollCountdown-- == 0) {
    tc.pollCountdown = 8192;
    core::Safepoint::poll(tc);
  }
}

// Fig. 5 steps 1-2 (after the poll): the lock array covering `o`, or
// nullptr when the access needs no lock — no active section (bootstrap /
// teardown code), or (1) `o` is new in this transaction. (2) lazily
// materializes the array if it still says UNALLOC. Shared by every path.
inline core::LockWord* lock_array(core::ThreadContext& tc, ManagedObject* o) {
  if (!tc.txn.active()) return nullptr;
  core::LockWord* lp = o->locks.load(std::memory_order_acquire);
  if (lp == nullptr) {
    tc.stats.checkNew++;
    return nullptr;
  }
  if (lp == kUnalloc) {
    tc.stats.lockInit++;
    lp = materialize_locks(o);
  }
  return lp;
}

// Fig. 5 steps 3-4 for a read under a locking (non-versioned) map:
// (3) our bit is already set, or (4) acquire or enqueue.
inline void read_lock_word(core::ThreadContext& tc, ManagedObject* o, core::LockWord* word) {
  const core::LockWord w =
      reinterpret_cast<std::atomic<core::LockWord>*>(word)->load(std::memory_order_acquire);
  if (core::is_member(w, tc.txn.mask())) {
    tc.stats.checkOwned++;
    return;
  }
  core::LockEngine::acquire_read(tc, o, word);
}

// Fig. 5 steps 3-4 for a write under a locking map, plus the undo log of
// `valueSlot`.
inline void write_lock_word(core::ThreadContext& tc, ManagedObject* o, core::LockWord* word,
                            uint64_t* valueSlot) {
  const core::LockWord w =
      reinterpret_cast<std::atomic<core::LockWord>*>(word)->load(std::memory_order_acquire);
  if (core::is_member(w, tc.txn.mask()) && core::has_writer(w)) {
    tc.stats.checkOwned++;
    // Identity map: an owned write lock implies THIS slot's old value
    // was logged when the lock was acquired. Coarse maps break that
    // implication (the word covers several slots), so log the slot on
    // every owned hit — duplicates are safe, the undo replay is
    // newest-first and re-applies the oldest value last.
    if (!o->h.cls->lockMap.identity()) tc.txn.log_undo(o, valueSlot, *valueSlot);
    return;
  }
  core::LockEngine::acquire_write(tc, o, word);
  tc.txn.log_undo(o, valueSlot, *valueSlot);
}

// The read and write checks of callers that already dispatched a
// versioned map to the invisible-read path, so the class's map is read
// once per access.
inline void locking_read(core::ThreadContext& tc, ManagedObject* o, uint64_t slot) {
  maybe_poll(tc);
  if (core::LockWord* lp = lock_array(tc, o)) read_lock_word(tc, o, lp + lock_index(o, slot));
}

inline void locking_write(core::ThreadContext& tc, ManagedObject* o, uint64_t slot,
                          uint64_t* valueSlot) {
  maybe_poll(tc);
  if (core::LockWord* lp = lock_array(tc, o))
    write_lock_word(tc, o, lp + lock_index(o, slot), valueSlot);
}

// --- Versioned (invisible-reader) access, LockMap::kVersioned ----------
// The stamp granule is the natural index (identity width), so every
// stamp word covers exactly one 64-bit data word: a field slot, an
// array element, or an 8-byte byte-array block (kI8LockStride == 8).
// All data accesses go through std::atomic (relaxed): an invisible
// reader's load may physically overlap a locked writer's store — the
// seqlock re-check discards such values, but the accesses themselves
// must be data-race-free.

// The 64-bit data word covered by natural index `slot`.
inline const uint64_t* covered_word(ManagedObject* o, uint64_t slot) {
  if (!o->is_array()) return &o->slots()[slot];
  if (o->h.cls->elemKind == ElemKind::kI8) return o->array_data() + slot / kI8LockStride;
  return o->array_data() + slot;
}

// Invisible read of the covered word: load stamp, load value, fence,
// re-check stamp, append to the read set (validated at split/commit).
// The one-shot seqlock attempt is inlined; a locked or stale stamp, a
// torn re-check, or an inevitable section falls back to the engine,
// which re-runs the protocol from scratch (spin, abort, promote).
inline uint64_t versioned_read_word(core::ThreadContext& tc, ManagedObject* o,
                                    uint64_t slot, const uint64_t* slotPtr) {
  maybe_poll(tc);
  const auto* aslot = reinterpret_cast<const std::atomic<uint64_t>*>(slotPtr);
  core::LockWord* lp = lock_array(tc, o);
  if (lp == nullptr) return aslot->load(std::memory_order_relaxed);
  core::LockWord* word = lp + natural_lock_index(o, slot);
  auto* aw = reinterpret_cast<std::atomic<core::LockWord>*>(word);
  const core::LockWord v1 = aw->load(std::memory_order_acquire);
  if (!core::version_locked(v1) && core::version_of(v1) <= tc.txn.readVersion_ &&
      !tc.txn.inevitable()) [[likely]] {
    const uint64_t value = aslot->load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    if (aw->load(std::memory_order_relaxed) == v1) [[likely]] {
      tc.stats.versionedReads++;
      tc.txn.record_versioned_read(o, word, v1);
      return value;
    }
  }
  return core::LockEngine::versioned_read(tc, o, word, aslot);
}

// Exclusive write lock on the covered word + undo log on first
// acquisition. Returns the atomic slot the caller stores through.
inline std::atomic<uint64_t>* versioned_write_word(core::ThreadContext& tc,
                                                   ManagedObject* o, uint64_t slot,
                                                   uint64_t* slotPtr) {
  maybe_poll(tc);
  auto* aslot = reinterpret_cast<std::atomic<uint64_t>*>(slotPtr);
  core::LockWord* lp = lock_array(tc, o);
  if (lp == nullptr) return aslot;  // new instance: no locking, no undo
  core::LockWord* word = lp + natural_lock_index(o, slot);
  // The stamp granule and the undo granule coincide (one covered word),
  // so only the first acquisition needs to log — owned re-hits are
  // check-only even for byte-array blocks.
  if (core::LockEngine::versioned_acquire_write(tc, o, word))
    tc.txn.log_undo(o, slotPtr, aslot->load(std::memory_order_relaxed));
  return aslot;
}

}  // namespace detail

// Ensures the current transaction may read `slot` of `o` (Fig. 5 path).
// Returns after the read lock is held (or no lock is needed).
inline void tx_lock_read(core::ThreadContext& tc, ManagedObject* o, uint64_t slot) {
  detail::maybe_poll(tc);
  core::LockWord* lp = detail::lock_array(tc, o);
  if (lp == nullptr) return;
  if (o->h.cls->lockMap.versioned()) {
    // Direct kLock callers (the IL interpreter) follow up with raw
    // non-atomic slot accesses (kGetFNl/kSetFNl) that an invisible
    // read cannot make safe, so a versioned kLock takes the covered
    // word exclusively. Undo is logged even for reads: a later owned
    // write hit then never needs a re-log.
    auto* vs = const_cast<uint64_t*>(detail::covered_word(o, slot));
    if (core::LockEngine::versioned_acquire_write(tc, o, lp + natural_lock_index(o, slot)))
      tc.txn.log_undo(o, vs,
                      reinterpret_cast<std::atomic<uint64_t>*>(vs)->load(
                          std::memory_order_relaxed));
    return;
  }
  detail::read_lock_word(tc, o, lp + lock_index(o, slot));
}

// Ensures a write lock on `slot` of `o` and logs the old value for the
// eager undo log. Call before the store.
inline void tx_lock_write(core::ThreadContext& tc, ManagedObject* o, uint64_t slot,
                          uint64_t* valueSlot) {
  detail::maybe_poll(tc);
  core::LockWord* lp = detail::lock_array(tc, o);
  if (lp == nullptr) return;  // new instance: no locking, no undo (discarded on abort)
  if (o->h.cls->lockMap.versioned()) {
    if (core::LockEngine::versioned_acquire_write(tc, o, lp + natural_lock_index(o, slot)))
      tc.txn.log_undo(o, valueSlot,
                      reinterpret_cast<std::atomic<uint64_t>*>(valueSlot)->load(
                          std::memory_order_relaxed));
    return;
  }
  detail::write_lock_word(tc, o, lp + lock_index(o, slot), valueSlot);
}

// --- Field access -----------------------------------------------------------

inline uint64_t tx_read(core::ThreadContext& tc, ManagedObject* o, uint32_t slot) {
  SBD_DCHECK(!o->is_array() && slot < o->h.cls->slotCount);
  SBD_DCHECK(!o->h.cls->slot_is_final(slot));
  if (o->h.cls->lockMap.versioned())
    return detail::versioned_read_word(tc, o, slot, &o->slots()[slot]);
  detail::locking_read(tc, o, slot);
  return o->slots()[slot];
}

inline void tx_write(core::ThreadContext& tc, ManagedObject* o, uint32_t slot,
                     uint64_t v) {
  SBD_DCHECK(!o->is_array() && slot < o->h.cls->slotCount);
  SBD_DCHECK(!o->h.cls->slot_is_final(slot));
  if (o->h.cls->lockMap.versioned()) {
    detail::versioned_write_word(tc, o, slot, &o->slots()[slot])
        ->store(v, std::memory_order_relaxed);
    return;
  }
  detail::locking_write(tc, o, slot, &o->slots()[slot]);
  o->slots()[slot] = v;
}

inline uint64_t tx_read(ManagedObject* o, uint32_t slot) {
  return tx_read(core::tls_context(), o, slot);
}

inline void tx_write(ManagedObject* o, uint32_t slot, uint64_t v) {
  tx_write(core::tls_context(), o, slot, v);
}

// Final fields: initialized in the constructor (which cannot split), so
// other transactions only ever see the initialized value — no
// synchronization (Table 1).
inline uint64_t read_final(const ManagedObject* o, uint32_t slot) {
  SBD_DCHECK(o->h.cls->slot_is_final(slot));
  return o->slots()[slot];
}

// Constructor-time initialization: the instance must be new in the
// current transaction (or pre-transactional bootstrap).
inline void init_write(ManagedObject* o, uint32_t slot, uint64_t v) {
  SBD_DCHECK(o->locks.load(std::memory_order_relaxed) == nullptr ||
             !core::tls_context().txn.active());
  o->slots()[slot] = v;
}

// --- Array element access ----------------------------------------------------

inline uint64_t tx_read_elem(core::ThreadContext& tc, ManagedObject* a, uint64_t idx) {
  SBD_DCHECK(a->is_array() && idx < a->array_length());
  if (a->h.cls->lockMap.versioned())
    return detail::versioned_read_word(tc, a, idx, &a->array_data()[idx]);
  detail::locking_read(tc, a, idx);
  return a->array_data()[idx];
}

inline void tx_write_elem(core::ThreadContext& tc, ManagedObject* a, uint64_t idx,
                          uint64_t v) {
  SBD_DCHECK(a->is_array() && idx < a->array_length());
  if (a->h.cls->lockMap.versioned()) {
    detail::versioned_write_word(tc, a, idx, &a->array_data()[idx])
        ->store(v, std::memory_order_relaxed);
    return;
  }
  detail::locking_write(tc, a, idx, &a->array_data()[idx]);
  a->array_data()[idx] = v;
}

inline uint64_t tx_read_elem(ManagedObject* a, uint64_t idx) {
  return tx_read_elem(core::tls_context(), a, idx);
}

inline void tx_write_elem(ManagedObject* a, uint64_t idx, uint64_t v) {
  tx_write_elem(core::tls_context(), a, idx, v);
}

// --- Section-scoped array read views -----------------------------------------
//
// The native-API spelling of the IL's redundant-check elimination and
// loop hoisting (il/opt.h, O1+O2): check once per section, not once per
// element.

// Range form of the Fig. 5 read check: takes exactly the read locks that
// per-element reads of a[lo, hi) would take, through the same engine and
// in index order (one word under the object map), counting words already
// held as owned checks, and polls the safepoint once. Returns false under
// a versioned map, where it locks nothing: the caller must then read each
// element through tx_read_elem, so every invisible read is still
// validated (a hoisted raw load would skip the per-read stamp check that
// gives opacity).
inline bool tx_lock_read_range(core::ThreadContext& tc, ManagedObject* a, uint64_t lo,
                               uint64_t hi) {
  SBD_DCHECK(a->is_array() && lo <= hi && hi <= a->array_length());
  core::Safepoint::poll(tc);
  if (a->h.cls->lockMap.versioned()) return false;
  if (lo == hi) return true;
  core::LockWord* lp = detail::lock_array(tc, a);
  if (lp == nullptr) return true;
  const uint32_t last = lock_index(a, hi - 1);
  for (uint32_t i = lock_index(a, lo); i <= last; i++) detail::read_lock_word(tc, a, lp + i);
  return true;
}

// A read view of a[lo, hi) of a 64-bit-element array, locked once at
// creation by tx_lock_read_range; operator[] is then a plain load. Valid
// until the section's next split, commit or abort: create it after the
// split that starts its section, so an abort replay creates it again
// (Debug builds check the thread's section epoch on every read). The
// view holds the array pointer, which the conservative GC scan finds.
// Under a versioned map every read goes through tx_read_elem.
template <typename T>
class ArrayReadView {
  static_assert(sizeof(T) == sizeof(uint64_t));

 public:
  ArrayReadView(core::ThreadContext& tc, ManagedObject* a, uint64_t lo, uint64_t hi)
      : a_(a), tc_(&tc), lo_(lo), hi_(hi) {
    SBD_DCHECK(a->h.cls->elemKind != ElemKind::kI8);
    direct_ = tx_lock_read_range(tc, a, lo, hi);
    epoch_ = tc.sectionEpoch;
  }

  T operator[](uint64_t i) const {
    SBD_DCHECK(tc_->sectionEpoch == epoch_ && i >= lo_ && i < hi_);
    if (direct_) [[likely]]
      return std::bit_cast<T>(a_->array_data()[i]);
    return std::bit_cast<T>(tx_read_elem(*tc_, a_, i));
  }

 private:
  ManagedObject* a_;
  core::ThreadContext* tc_;
  uint64_t lo_, hi_;
  uint64_t epoch_ = 0;
  bool direct_ = false;
};

inline int8_t tx_read_i8(core::ThreadContext& tc, ManagedObject* a, uint64_t idx) {
  SBD_DCHECK(a->is_array() && a->h.cls->elemKind == ElemKind::kI8 &&
             idx < a->array_length());
  if (a->h.cls->lockMap.versioned()) {
    // The validated value is the whole covered 64-bit word; extract the
    // byte from the local copy (memcpy reproduces memory byte order, so
    // this matches array_data_i8()[idx] on any endianness).
    const uint64_t w = detail::versioned_read_word(
        tc, a, idx, a->array_data() + idx / kI8LockStride);
    int8_t b;
    std::memcpy(&b, reinterpret_cast<const char*>(&w) + (idx % kI8LockStride), 1);
    return b;
  }
  detail::locking_read(tc, a, idx);
  return a->array_data_i8()[idx];
}

// Byte arrays share one lock word per 64-byte block, so undo logging is
// done at 8-byte granularity on the containing word.
inline void tx_write_i8(core::ThreadContext& tc, ManagedObject* a, uint64_t idx,
                        int8_t v) {
  SBD_DCHECK(a->is_array() && a->h.cls->elemKind == ElemKind::kI8 &&
             idx < a->array_length());
  uint64_t* wordSlot = a->array_data() + idx / 8;
  if (a->h.cls->lockMap.versioned()) {
    // Exclusive lock + undo on the containing word; then a byte-wide
    // atomic store (invisible readers load the word atomically, so the
    // store must be atomic too — the mixed widths are fine, readers
    // that overlap it are discarded by their seqlock re-check).
    detail::versioned_write_word(tc, a, idx, wordSlot);
    reinterpret_cast<std::atomic<int8_t>*>(a->array_data_i8() + idx)
        ->store(v, std::memory_order_relaxed);
    return;
  }
  detail::locking_write(tc, a, idx, wordSlot);
  a->array_data_i8()[idx] = v;
}

inline int8_t tx_read_i8(ManagedObject* a, uint64_t idx) {
  return tx_read_i8(core::tls_context(), a, idx);
}

inline void tx_write_i8(ManagedObject* a, uint64_t idx, int8_t v) {
  tx_write_i8(core::tls_context(), a, idx, v);
}

inline void init_write_elem(ManagedObject* a, uint64_t idx, uint64_t v) {
  SBD_DCHECK(a->locks.load(std::memory_order_relaxed) == nullptr ||
             !core::tls_context().txn.active());
  a->array_data()[idx] = v;
}

inline void init_write_i8(ManagedObject* a, uint64_t idx, int8_t v) {
  SBD_DCHECK(a->locks.load(std::memory_order_relaxed) == nullptr ||
             !core::tls_context().txn.active());
  a->array_data_i8()[idx] = v;
}

// Array length is immutable, like a final field.
inline uint64_t array_length(const ManagedObject* a) { return a->array_length(); }

}  // namespace sbd::runtime
