// Class metadata for the managed object model.
//
// The SBD runtime needs, per class, exactly what the paper's bytecode
// transformer gets from Java class files: which slots are references
// (for GC tracing), which are final (no synchronization, Table 1), and
// how many slots an instance has (size of the lazy lock structure).
// Classes are registered once at startup; registration is not
// transactional.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/fwd.h"

namespace sbd::runtime {

struct ManagedObject;

enum class ElemKind : uint8_t {
  kNone = 0,  // not an array class
  kI8,        // byte arrays (strings, buffers); locks per 64-byte block
  kI64,       // word arrays; locks per element
  kF64,       // double arrays; locks per element
  kRef,       // reference arrays; locks per element
};

inline constexpr uint32_t kMaxSlots = 64;  // ref/final masks are single words

struct SlotDesc {
  const char* name;
  bool isRef = false;
  bool isFinal = false;
};

// LockMap — the slot→lock-index policy of a class: which lock word
// protects slot i (field index, array element index, or byte-array
// block index). The paper fixes this at identity (one lock per
// field/element, Fig. 4); making it a per-class policy turns the
// granularity into a seam runtime/lockplan sets per mode or per pin.
//
//   field      identity map — the faithful Fig. 4 default
//   striped(k) natural index mod k — k lock words per instance
//   object     one lock word for the whole instance
//   versioned  identity-width map of *version stamps* (TL2-style
//              invisible readers): reads validate against the global
//              commit clock instead of writing reader bits, writes
//              still lock exclusively (see core/lockword.h)
//
// The map talks in *natural* lock indices (what lock_index() computed
// before this seam existed): fields and word-array elements map 1:1,
// byte arrays are first reduced to 64-byte blocks (kI8LockStride).
struct LockMap {
  enum Kind : uint8_t { kField = 0, kStriped = 1, kObject = 2, kVersioned = 3 };
  Kind kind = kField;
  uint32_t stripes = 1;  // meaningful for kStriped only; >= 1

  static LockMap field_map() { return LockMap{}; }
  static LockMap striped_map(uint32_t k) {
    return LockMap{kStriped, k < 1 ? 1u : k};
  }
  static LockMap object_map() { return LockMap{kObject, 1}; }
  static LockMap versioned_map() { return LockMap{kVersioned, 1}; }

  bool identity() const { return kind == kField; }
  bool versioned() const { return kind == kVersioned; }

  // Lock words an instance with `naturalCount` natural indices needs.
  // Versioned maps keep identity width: one stamp word per natural
  // index, so conflict detection stays per-field/per-element.
  uint32_t width(uint32_t naturalCount) const {
    switch (kind) {
      case kField:
      case kVersioned:
        return naturalCount;
      case kStriped:
        return naturalCount < stripes ? naturalCount : stripes;
      case kObject:
      default:
        return naturalCount > 0 ? 1 : 0;
    }
  }

  // Mapped index of natural index `i`; always < width(n) for i < n.
  uint32_t index(uint32_t naturalIndex) const {
    switch (kind) {
      case kField:
      case kVersioned:
        return naturalIndex;
      case kStriped:
        return naturalIndex % stripes;
      case kObject:
      default:
        return 0;
    }
  }

  // Packed form stored in ClassInfo::lockMapBits. field_map() packs to
  // 0 so a zero-initialized class starts at the faithful default.
  uint64_t bits() const {
    return static_cast<uint64_t>(kind) |
           (kind == kStriped ? static_cast<uint64_t>(stripes) << 8 : 0);
  }
  static LockMap from_bits(uint64_t b) {
    LockMap m;
    m.kind = static_cast<Kind>(b & 0xFF);
    m.stripes = m.kind == kStriped ? static_cast<uint32_t>(b >> 8) : 1;
    if (m.stripes < 1) m.stripes = 1;
    return m;
  }

  bool operator==(const LockMap& o) const {
    return kind == o.kind && (kind != kStriped || stripes == o.stripes);
  }
  bool operator!=(const LockMap& o) const { return !(*this == o); }

  std::string to_string() const {
    switch (kind) {
      case kField:
        return "field";
      case kStriped:
        return "striped:" + std::to_string(stripes);
      case kVersioned:
        return "versioned";
      case kObject:
      default:
        return "object";
    }
  }
};

struct ClassInfo {
  std::string name;
  uint32_t slotCount = 0;
  uint64_t refMask = 0;    // bit i set: slot i holds a managed reference
  uint64_t finalMask = 0;  // bit i set: slot i is final -> no synchronization
  bool isArray = false;
  ElemKind elemKind = ElemKind::kNone;
  std::vector<std::string> slotNames;

  // Per-class statics live in a managed object so static accesses get
  // the same field-granularity locking as instance accesses.
  ManagedObject* statics = nullptr;
  uint32_t staticSlotCount = 0;
  uint64_t staticRefMask = 0;

  // --- Lock-granularity policy (runtime/lockplan) ---------------------
  // The current slot→lock map, packed (LockMap::bits). Mutated only
  // before any instance of the class exists or with the world stopped
  // (lockplan pin), so a relaxed load on the access fast path is
  // sound: no running transaction can ever observe the map mid-change.
  std::atomic<uint64_t> lockMapBits{0};  // 0 == LockMap::field_map().bits()

  LockMap lock_map() const {
    return LockMap::from_bits(lockMapBits.load(std::memory_order_relaxed));
  }

  bool slot_is_final(uint32_t slot) const { return (finalMask >> slot) & 1; }
  bool slot_is_ref(uint32_t slot) const { return (refMask >> slot) & 1; }
};

// Registers a class. Must happen before any instance is allocated;
// typically from a function-local static initializer (see SBD_DEFINE_CLASS
// in ref.h). `staticSlots` may be empty.
ClassInfo* register_class(const std::string& name, const std::vector<SlotDesc>& slots,
                          const std::vector<SlotDesc>& staticSlots = {});

// Built-in array classes (one per element kind).
ClassInfo* array_class(ElemKind kind);

// Enumerate all registered classes (GC roots: statics objects).
void for_each_class(const std::function<void(ClassInfo*)>& fn);

}  // namespace sbd::runtime
