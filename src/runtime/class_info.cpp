#include "runtime/class_info.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "common/check.h"
#include "runtime/heap.h"
#include "runtime/object.h"

namespace sbd::runtime {

namespace {
std::mutex gClassMu;
std::vector<ClassInfo*>& class_list() {
  static std::vector<ClassInfo*> list;
  return list;
}

LockMap parse_lock_granularity() {
  const char* e = std::getenv("SBD_LOCK_GRANULARITY");
  if (!e || !*e || std::strcmp(e, "field") == 0) return LockMap::field_map();
  if (std::strcmp(e, "object") == 0) return LockMap::object_map();
  if (std::strcmp(e, "versioned") == 0) return LockMap::versioned_map();
  std::fprintf(stderr, "sbd: unknown SBD_LOCK_GRANULARITY '%s'; using field\n", e);
  return LockMap::field_map();
}

// Adds a fully built class to the class list. The map was written
// before this point, so no instance is ever allocated under another.
ClassInfo* publish(ClassInfo* ci) {
  std::lock_guard<std::mutex> lk(gClassMu);
  class_list().push_back(ci);
  return ci;
}
}  // namespace

LockMap process_lock_map() {
  static const LockMap m = parse_lock_granularity();
  return m;
}

ClassInfo* register_class(const std::string& name, const std::vector<SlotDesc>& slots,
                          const std::vector<SlotDesc>& staticSlots, LockMap map) {
  SBD_CHECK_MSG(slots.size() <= kMaxSlots, "too many instance slots");
  SBD_CHECK_MSG(staticSlots.size() <= kMaxSlots, "too many static slots");
  auto* ci = new ClassInfo();
  ci->name = name;
  ci->lockMap = map;
  ci->slotCount = static_cast<uint32_t>(slots.size());
  for (uint32_t i = 0; i < ci->slotCount; i++) {
    if (slots[i].isRef) ci->refMask |= 1ULL << i;
    if (slots[i].isFinal) ci->finalMask |= 1ULL << i;
    ci->slotNames.emplace_back(slots[i].name);
  }
  ci->staticSlotCount = static_cast<uint32_t>(staticSlots.size());
  for (uint32_t i = 0; i < ci->staticSlotCount; i++)
    if (staticSlots[i].isRef) ci->staticRefMask |= 1ULL << i;

  if (ci->staticSlotCount > 0) {
    // The statics holder is itself a managed object so static accesses
    // get field-granularity locking. It is registered pre-transactionally.
    // (Its synthetic ::statics class is not in the class list and
    // always uses the field map.)
    ci->statics = Heap::instance().alloc_statics_holder(ci);
  }
  return publish(ci);
}

void for_each_class(const std::function<void(ClassInfo*)>& fn) {
  std::lock_guard<std::mutex> lk(gClassMu);
  for (ClassInfo* ci : class_list()) fn(ci);
}

ClassInfo* register_array_class(const std::string& name, ElemKind kind, LockMap map) {
  // Array classes share the class list with named classes (the GC
  // statics walk tolerates their statics == nullptr).
  auto* c = new ClassInfo();
  c->name = name;
  c->isArray = true;
  c->elemKind = kind;
  c->lockMap = map;
  return publish(c);
}

ClassInfo* array_class(ElemKind kind) {
  static ClassInfo* i8 = register_array_class("byte[]", ElemKind::kI8);
  static ClassInfo* i64 = register_array_class("long[]", ElemKind::kI64);
  static ClassInfo* f64 = register_array_class("double[]", ElemKind::kF64);
  static ClassInfo* ref = register_array_class("Object[]", ElemKind::kRef);
  switch (kind) {
    case ElemKind::kI8:
      return i8;
    case ElemKind::kI64:
      return i64;
    case ElemKind::kF64:
      return f64;
    case ElemKind::kRef:
      return ref;
    default:
      SBD_CHECK_MSG(false, "not an array kind");
      return nullptr;
  }
}

}  // namespace sbd::runtime
