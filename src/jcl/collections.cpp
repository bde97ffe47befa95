#include "jcl/collections.h"

#include "common/check.h"
#include "common/rng.h"

using sbd::fnv1a;
using sbd::mix64;

namespace sbd::jcl {

using runtime::ManagedObject;
using runtime::RefArray;
using runtime::I64Array;
using runtime::MString;
using runtime::ElemKind;

// Every public method resolves the thread context ONCE and threads it
// through the tc-taking accessor overloads — collection operations are
// many field/element accesses back to back, so this is the Table 4
// "cache the environment pointer" fix applied library-wide.

namespace {
struct AnyRef : runtime::TypedRef<AnyRef> {
  using TypedRef::TypedRef;
};

// Every backing array is allocated here, from one JCL-owned array class
// per element kind that takes one lock word for the whole array instead
// of one per element (DESIGN "Known, documented deviations", like the
// Table 4 adaptations). Every insert and removal already writes the
// collection's `size`, so the coarser word adds no conflict between two
// of them (a put and a take, two pushes), and a probe or a posting walk
// takes one lock instead of one per element. Under a versioned process
// map the arrays keep its per-element stamps, so their reads stay
// invisible.
ManagedObject* backing_array(ElemKind kind, uint64_t length) {
  static const runtime::LockMap map = runtime::process_lock_map().versioned()
                                          ? runtime::process_lock_map()
                                          : runtime::LockMap::object_map();
  static runtime::ClassInfo* const words =
      runtime::register_array_class("jcl.long[]", ElemKind::kI64, map);
  static runtime::ClassInfo* const refs =
      runtime::register_array_class("jcl.Object[]", ElemKind::kRef, map);
  return runtime::Heap::instance().alloc_array(
      kind == ElemKind::kRef ? refs : words, length);
}
}  // namespace

// ---------------------------------------------------------------------------
// MVector
// ---------------------------------------------------------------------------

// Slot indices.
namespace vec {
constexpr uint32_t kData = 0, kSize = 1;
}

MVector MVector::make(int64_t capacity) {
  MVector v = alloc();
  if (capacity < 4) capacity = 4;
  RefArray<AnyRef> arr(backing_array(ElemKind::kRef, static_cast<uint64_t>(capacity)));
  runtime::init_write(v.raw(), vec::kData, reinterpret_cast<uint64_t>(arr.raw()));
  runtime::init_write(v.raw(), vec::kSize, 0);
  return v;
}

int64_t MVector::size() const {
  return static_cast<int64_t>(runtime::tx_read(o_, vec::kSize));
}

ManagedObject* MVector::get(int64_t i) const {
  auto& tc = core::tls_context();
  auto* data = reinterpret_cast<ManagedObject*>(runtime::tx_read(tc, o_, vec::kData));
  SBD_CHECK_MSG(i >= 0 && static_cast<uint64_t>(i) < runtime::array_length(data),
                "MVector index out of range");
  return reinterpret_cast<ManagedObject*>(
      runtime::tx_read_elem(tc, data, static_cast<uint64_t>(i)));
}

void MVector::set(int64_t i, ManagedObject* v) {
  auto& tc = core::tls_context();
  auto* data = reinterpret_cast<ManagedObject*>(runtime::tx_read(tc, o_, vec::kData));
  SBD_CHECK_MSG(i >= 0 && static_cast<uint64_t>(i) < runtime::array_length(data),
                "MVector index out of range");
  runtime::tx_write_elem(tc, data, static_cast<uint64_t>(i),
                         reinterpret_cast<uint64_t>(v));
}

void MVector::push(ManagedObject* v) {
  auto& tc = core::tls_context();
  const auto n = static_cast<int64_t>(runtime::tx_read(tc, o_, vec::kSize));
  auto* data = reinterpret_cast<ManagedObject*>(runtime::tx_read(tc, o_, vec::kData));
  const auto cap = runtime::array_length(data);
  if (static_cast<uint64_t>(n) == cap) {
    RefArray<AnyRef> bigger(backing_array(ElemKind::kRef, cap * 2));
    for (uint64_t i = 0; i < cap; i++)
      bigger.init_set(i, AnyRef(reinterpret_cast<ManagedObject*>(
                             runtime::tx_read_elem(tc, data, i))));
    runtime::tx_write(tc, o_, vec::kData, reinterpret_cast<uint64_t>(bigger.raw()));
    data = bigger.raw();
  }
  runtime::tx_write_elem(tc, data, static_cast<uint64_t>(n),
                         reinterpret_cast<uint64_t>(v));
  runtime::tx_write(tc, o_, vec::kSize, static_cast<uint64_t>(n + 1));
}

ManagedObject* MVector::pop() {
  auto& tc = core::tls_context();
  const auto n = static_cast<int64_t>(runtime::tx_read(tc, o_, vec::kSize));
  if (n == 0) return nullptr;
  auto* data = reinterpret_cast<ManagedObject*>(runtime::tx_read(tc, o_, vec::kData));
  auto* v = reinterpret_cast<ManagedObject*>(
      runtime::tx_read_elem(tc, data, static_cast<uint64_t>(n - 1)));
  runtime::tx_write(tc, o_, vec::kSize, static_cast<uint64_t>(n - 1));
  return v;
}

void MVector::clear() { runtime::tx_write(o_, vec::kSize, 0); }

// ---------------------------------------------------------------------------
// MIntMap
// ---------------------------------------------------------------------------

namespace imap {
constexpr uint32_t kKeys = 0, kVals = 1, kUsed = 2, kSize = 3, kCap = 4;
}

MIntMap MIntMap::make(int64_t capacity) {
  MIntMap m = alloc();
  if (capacity < 8) capacity = 8;
  // Round to a power of two for mask probing.
  int64_t cap = 8;
  while (cap < capacity) cap *= 2;
  runtime::init_write(m.raw(), imap::kKeys,
                      reinterpret_cast<uint64_t>(
                          backing_array(ElemKind::kI64, static_cast<uint64_t>(cap))));
  runtime::init_write(m.raw(), imap::kVals,
                      reinterpret_cast<uint64_t>(
                          backing_array(ElemKind::kRef, static_cast<uint64_t>(cap))));
  runtime::init_write(m.raw(), imap::kUsed,
                      reinterpret_cast<uint64_t>(
                          backing_array(ElemKind::kI64, static_cast<uint64_t>(cap))));
  runtime::init_write(m.raw(), imap::kSize, 0);
  runtime::init_write(m.raw(), imap::kCap, static_cast<uint64_t>(cap));
  return m;
}

int64_t MIntMap::size() const {
  return static_cast<int64_t>(runtime::tx_read(o_, imap::kSize));
}

int64_t MIntMap::find_slot(core::ThreadContext& tc, int64_t key, bool& present) const {
  const auto cap = static_cast<int64_t>(runtime::tx_read(tc, o_, imap::kCap));
  auto* keys = reinterpret_cast<ManagedObject*>(runtime::tx_read(tc, o_, imap::kKeys));
  auto* used = reinterpret_cast<ManagedObject*>(runtime::tx_read(tc, o_, imap::kUsed));
  int64_t i = static_cast<int64_t>(mix64(static_cast<uint64_t>(key))) & (cap - 1);
  for (;;) {
    const bool u = runtime::tx_read_elem(tc, used, static_cast<uint64_t>(i)) != 0;
    if (!u) {
      present = false;
      return i;
    }
    if (static_cast<int64_t>(
            runtime::tx_read_elem(tc, keys, static_cast<uint64_t>(i))) == key) {
      present = true;
      return i;
    }
    i = (i + 1) & (cap - 1);
  }
}

bool MIntMap::contains(int64_t key) const {
  bool present;
  find_slot(core::tls_context(), key, present);
  return present;
}

ManagedObject* MIntMap::get(int64_t key) const {
  auto& tc = core::tls_context();
  bool present;
  const int64_t slot = find_slot(tc, key, present);
  if (!present) return nullptr;
  auto* vals = reinterpret_cast<ManagedObject*>(runtime::tx_read(tc, o_, imap::kVals));
  return reinterpret_cast<ManagedObject*>(
      runtime::tx_read_elem(tc, vals, static_cast<uint64_t>(slot)));
}

void MIntMap::put(int64_t key, ManagedObject* value) {
  auto& tc = core::tls_context();
  bool present;
  int64_t slot = find_slot(tc, key, present);
  const auto cap = static_cast<int64_t>(runtime::tx_read(tc, o_, imap::kCap));
  const auto sz = static_cast<int64_t>(runtime::tx_read(tc, o_, imap::kSize));
  if (!present && (sz + 1) * 10 >= cap * 7) {
    rehash(tc);
    slot = find_slot(tc, key, present);
  }
  auto* keys = reinterpret_cast<ManagedObject*>(runtime::tx_read(tc, o_, imap::kKeys));
  auto* vals = reinterpret_cast<ManagedObject*>(runtime::tx_read(tc, o_, imap::kVals));
  auto* used = reinterpret_cast<ManagedObject*>(runtime::tx_read(tc, o_, imap::kUsed));
  runtime::tx_write_elem(tc, keys, static_cast<uint64_t>(slot),
                         static_cast<uint64_t>(key));
  runtime::tx_write_elem(tc, vals, static_cast<uint64_t>(slot),
                         reinterpret_cast<uint64_t>(value));
  if (!present) {
    runtime::tx_write_elem(tc, used, static_cast<uint64_t>(slot), 1);
    const auto sz2 = static_cast<int64_t>(runtime::tx_read(tc, o_, imap::kSize));
    runtime::tx_write(tc, o_, imap::kSize, static_cast<uint64_t>(sz2 + 1));
  }
}

void MIntMap::rehash(core::ThreadContext& tc) {
  const auto cap = static_cast<int64_t>(runtime::tx_read(tc, o_, imap::kCap));
  auto* keys = reinterpret_cast<ManagedObject*>(runtime::tx_read(tc, o_, imap::kKeys));
  auto* vals = reinterpret_cast<ManagedObject*>(runtime::tx_read(tc, o_, imap::kVals));
  auto* used = reinterpret_cast<ManagedObject*>(runtime::tx_read(tc, o_, imap::kUsed));
  const int64_t newCap = cap * 2;
  I64Array nk(backing_array(ElemKind::kI64, static_cast<uint64_t>(newCap)));
  RefArray<AnyRef> nv(backing_array(ElemKind::kRef, static_cast<uint64_t>(newCap)));
  I64Array nu(backing_array(ElemKind::kI64, static_cast<uint64_t>(newCap)));
  for (int64_t i = 0; i < cap; i++) {
    if (runtime::tx_read_elem(tc, used, static_cast<uint64_t>(i)) == 0) continue;
    const auto key =
        static_cast<int64_t>(runtime::tx_read_elem(tc, keys, static_cast<uint64_t>(i)));
    int64_t j = static_cast<int64_t>(mix64(static_cast<uint64_t>(key))) & (newCap - 1);
    while (nu.get(tc, static_cast<uint64_t>(j)) != 0) j = (j + 1) & (newCap - 1);
    nk.init_set(static_cast<uint64_t>(j), key);
    nv.init_set(static_cast<uint64_t>(j),
                AnyRef(reinterpret_cast<ManagedObject*>(
                    runtime::tx_read_elem(tc, vals, static_cast<uint64_t>(i)))));
    nu.init_set(static_cast<uint64_t>(j), 1);
  }
  runtime::tx_write(tc, o_, imap::kKeys, reinterpret_cast<uint64_t>(nk.raw()));
  runtime::tx_write(tc, o_, imap::kVals, reinterpret_cast<uint64_t>(nv.raw()));
  runtime::tx_write(tc, o_, imap::kUsed, reinterpret_cast<uint64_t>(nu.raw()));
  runtime::tx_write(tc, o_, imap::kCap, static_cast<uint64_t>(newCap));
}

// ---------------------------------------------------------------------------
// MStrMap
// ---------------------------------------------------------------------------

namespace smap {
constexpr uint32_t kHashes = 0, kKeys = 1, kVals = 2, kSize = 3, kCap = 4;
}

MStrMap MStrMap::make(int64_t capacity) {
  MStrMap m = alloc();
  if (capacity < 8) capacity = 8;
  int64_t cap = 8;
  while (cap < capacity) cap *= 2;
  runtime::init_write(m.raw(), smap::kHashes,
                      reinterpret_cast<uint64_t>(
                          backing_array(ElemKind::kI64, static_cast<uint64_t>(cap))));
  runtime::init_write(m.raw(), smap::kKeys,
                      reinterpret_cast<uint64_t>(
                          backing_array(ElemKind::kRef, static_cast<uint64_t>(cap))));
  runtime::init_write(m.raw(), smap::kVals,
                      reinterpret_cast<uint64_t>(
                          backing_array(ElemKind::kRef, static_cast<uint64_t>(cap))));
  runtime::init_write(m.raw(), smap::kSize, 0);
  runtime::init_write(m.raw(), smap::kCap, static_cast<uint64_t>(cap));
  return m;
}

int64_t MStrMap::size() const {
  return static_cast<int64_t>(runtime::tx_read(o_, smap::kSize));
}

ManagedObject* MStrMap::get(std::string_view key) const {
  auto& tc = core::tls_context();
  const auto cap = static_cast<int64_t>(runtime::tx_read(tc, o_, smap::kCap));
  auto* keys = reinterpret_cast<ManagedObject*>(runtime::tx_read(tc, o_, smap::kKeys));
  auto* vals = reinterpret_cast<ManagedObject*>(runtime::tx_read(tc, o_, smap::kVals));
  const uint64_t h = fnv1a(key) | 1;  // 0 marks an empty slot
  auto* hashes =
      reinterpret_cast<ManagedObject*>(runtime::tx_read(tc, o_, smap::kHashes));
  int64_t i = static_cast<int64_t>(h) & (cap - 1);
  for (;;) {
    const uint64_t sh = runtime::tx_read_elem(tc, hashes, static_cast<uint64_t>(i));
    if (sh == 0) return nullptr;
    if (sh == h) {
      MString k(reinterpret_cast<ManagedObject*>(
          runtime::tx_read_elem(tc, keys, static_cast<uint64_t>(i))));
      if (k.equals(key))
        return reinterpret_cast<ManagedObject*>(
            runtime::tx_read_elem(tc, vals, static_cast<uint64_t>(i)));
    }
    i = (i + 1) & (cap - 1);
  }
}

void MStrMap::put(MString key, ManagedObject* value) {
  auto& tc = core::tls_context();
  const auto cap = static_cast<int64_t>(runtime::tx_read(tc, o_, smap::kCap));
  const auto sz = static_cast<int64_t>(runtime::tx_read(tc, o_, smap::kSize));
  if ((sz + 1) * 10 >= cap * 7) rehash(tc);
  const auto cap2 = static_cast<int64_t>(runtime::tx_read(tc, o_, smap::kCap));
  auto* hashes =
      reinterpret_cast<ManagedObject*>(runtime::tx_read(tc, o_, smap::kHashes));
  auto* keys = reinterpret_cast<ManagedObject*>(runtime::tx_read(tc, o_, smap::kKeys));
  auto* vals = reinterpret_cast<ManagedObject*>(runtime::tx_read(tc, o_, smap::kVals));
  const uint64_t h = fnv1a(key.view()) | 1;
  int64_t i = static_cast<int64_t>(h) & (cap2 - 1);
  for (;;) {
    const uint64_t sh = runtime::tx_read_elem(tc, hashes, static_cast<uint64_t>(i));
    if (sh == 0) {
      runtime::tx_write_elem(tc, hashes, static_cast<uint64_t>(i), h);
      runtime::tx_write_elem(tc, keys, static_cast<uint64_t>(i),
                             reinterpret_cast<uint64_t>(key.raw()));
      runtime::tx_write_elem(tc, vals, static_cast<uint64_t>(i),
                             reinterpret_cast<uint64_t>(value));
      const auto sz2 = static_cast<int64_t>(runtime::tx_read(tc, o_, smap::kSize));
      runtime::tx_write(tc, o_, smap::kSize, static_cast<uint64_t>(sz2 + 1));
      return;
    }
    if (sh == h) {
      MString k(reinterpret_cast<ManagedObject*>(
          runtime::tx_read_elem(tc, keys, static_cast<uint64_t>(i))));
      if (k.equals(key.view())) {
        runtime::tx_write_elem(tc, vals, static_cast<uint64_t>(i),
                               reinterpret_cast<uint64_t>(value));
        return;
      }
    }
    i = (i + 1) & (cap2 - 1);
  }
}

void MStrMap::rehash(core::ThreadContext& tc) {
  const auto cap = static_cast<int64_t>(runtime::tx_read(tc, o_, smap::kCap));
  auto* hashes =
      reinterpret_cast<ManagedObject*>(runtime::tx_read(tc, o_, smap::kHashes));
  auto* keys = reinterpret_cast<ManagedObject*>(runtime::tx_read(tc, o_, smap::kKeys));
  auto* vals = reinterpret_cast<ManagedObject*>(runtime::tx_read(tc, o_, smap::kVals));
  const int64_t newCap = cap * 2;
  I64Array nh(backing_array(ElemKind::kI64, static_cast<uint64_t>(newCap)));
  RefArray<MString> nk(backing_array(ElemKind::kRef, static_cast<uint64_t>(newCap)));
  RefArray<AnyRef> nv(backing_array(ElemKind::kRef, static_cast<uint64_t>(newCap)));
  for (int64_t i = 0; i < cap; i++) {
    const uint64_t h = runtime::tx_read_elem(tc, hashes, static_cast<uint64_t>(i));
    if (h == 0) continue;
    int64_t j = static_cast<int64_t>(h) & (newCap - 1);
    while (nh.get(tc, static_cast<uint64_t>(j)) != 0) j = (j + 1) & (newCap - 1);
    nh.init_set(static_cast<uint64_t>(j), static_cast<int64_t>(h));
    nk.init_set(static_cast<uint64_t>(j),
                MString(reinterpret_cast<ManagedObject*>(
                    runtime::tx_read_elem(tc, keys, static_cast<uint64_t>(i)))));
    nv.init_set(static_cast<uint64_t>(j),
                AnyRef(reinterpret_cast<ManagedObject*>(
                    runtime::tx_read_elem(tc, vals, static_cast<uint64_t>(i)))));
  }
  runtime::tx_write(tc, o_, smap::kHashes, reinterpret_cast<uint64_t>(nh.raw()));
  runtime::tx_write(tc, o_, smap::kKeys, reinterpret_cast<uint64_t>(nk.raw()));
  runtime::tx_write(tc, o_, smap::kVals, reinterpret_cast<uint64_t>(nv.raw()));
  runtime::tx_write(tc, o_, smap::kCap, static_cast<uint64_t>(newCap));
}

// ---------------------------------------------------------------------------
// MTaskQueue
// ---------------------------------------------------------------------------

namespace tq {
constexpr uint32_t kItems = 0, kHead = 1, kTail = 2, kSize = 3, kIsEmpty = 4,
                   kUseFlag = 5, kCap = 6;
}

MTaskQueue MTaskQueue::make(int64_t capacity, bool useEmptyFlag) {
  MTaskQueue q = alloc();
  runtime::init_write(q.raw(), tq::kItems,
                      reinterpret_cast<uint64_t>(
                          backing_array(ElemKind::kRef, static_cast<uint64_t>(capacity))));
  runtime::init_write(q.raw(), tq::kHead, 0);
  runtime::init_write(q.raw(), tq::kTail, 0);
  runtime::init_write(q.raw(), tq::kSize, 0);
  runtime::init_write(q.raw(), tq::kIsEmpty, 1);
  runtime::init_write(q.raw(), tq::kUseFlag, useEmptyFlag ? 1 : 0);
  runtime::init_write(q.raw(), tq::kCap, static_cast<uint64_t>(capacity));
  return q;
}

int64_t MTaskQueue::size() const {
  return static_cast<int64_t>(runtime::tx_read(o_, tq::kSize));
}

bool MTaskQueue::empty_check() const {
  if (runtime::read_final(o_, tq::kUseFlag) != 0)
    return runtime::tx_read(o_, tq::kIsEmpty) != 0;  // low-churn flag
  return size() == 0;  // hot counter: conflicts with every put/take
}

bool MTaskQueue::put(ManagedObject* v) {
  auto& tc = core::tls_context();
  const auto cap = static_cast<int64_t>(runtime::read_final(o_, tq::kCap));
  const auto n = static_cast<int64_t>(runtime::tx_read(tc, o_, tq::kSize));
  if (n == cap) return false;
  auto* items = reinterpret_cast<ManagedObject*>(runtime::tx_read(tc, o_, tq::kItems));
  const auto tail = static_cast<int64_t>(runtime::tx_read(tc, o_, tq::kTail));
  runtime::tx_write_elem(tc, items, static_cast<uint64_t>(tail % cap),
                         reinterpret_cast<uint64_t>(v));
  runtime::tx_write(tc, o_, tq::kTail, static_cast<uint64_t>(tail + 1));
  runtime::tx_write(tc, o_, tq::kSize, static_cast<uint64_t>(n + 1));
  if (runtime::read_final(o_, tq::kUseFlag) != 0 && n == 0)
    runtime::tx_write(tc, o_, tq::kIsEmpty, 0);  // only on the 0 -> 1 transition
  return true;
}

ManagedObject* MTaskQueue::take() {
  if (empty_check()) return nullptr;
  auto& tc = core::tls_context();
  const auto n = static_cast<int64_t>(runtime::tx_read(tc, o_, tq::kSize));
  if (n == 0) return nullptr;  // flag said non-empty, but we raced a taker
  const auto cap = static_cast<int64_t>(runtime::read_final(o_, tq::kCap));
  auto* items = reinterpret_cast<ManagedObject*>(runtime::tx_read(tc, o_, tq::kItems));
  const auto head = static_cast<int64_t>(runtime::tx_read(tc, o_, tq::kHead));
  auto* v = reinterpret_cast<ManagedObject*>(
      runtime::tx_read_elem(tc, items, static_cast<uint64_t>(head % cap)));
  runtime::tx_write(tc, o_, tq::kHead, static_cast<uint64_t>(head + 1));
  runtime::tx_write(tc, o_, tq::kSize, static_cast<uint64_t>(n - 1));
  if (runtime::read_final(o_, tq::kUseFlag) != 0 && n == 1)
    runtime::tx_write(tc, o_, tq::kIsEmpty, 1);  // only on the 1 -> 0 transition
  return v;
}

}  // namespace sbd::jcl
