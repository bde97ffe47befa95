// Class metadata for the managed object model.
//
// The SBD runtime needs, per class, exactly what the paper's bytecode
// transformer gets from Java class files: which slots are references
// (for GC tracing), which are final (no synchronization, Table 1), and
// how many slots an instance has (size of the lazy lock structure).
// Classes are registered once at startup; registration is not
// transactional.
#pragma once

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
// block index). The paper fixes lock granularity once per class, when
// the class is loaded, at identity (one lock per field/element, Fig. 4);
// here the map is chosen at registration — the process mode
// (SBD_LOCK_GRANULARITY) unless the class passes its own — and never
// changes afterwards.
//
//   field      identity map — the faithful Fig. 4 default
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
  enum Kind : uint8_t { kField, kObject, kVersioned };
  Kind kind = kField;

  static LockMap field_map() { return LockMap{}; }
  static LockMap object_map() { return LockMap{kObject}; }
  static LockMap versioned_map() { return LockMap{kVersioned}; }

  bool identity() const { return kind == kField; }
  bool versioned() const { return kind == kVersioned; }

  // Lock words an instance with `naturalCount` natural indices needs.
  // Versioned maps keep identity width: one stamp word per natural
  // index, so conflict detection stays per-field/per-element.
  uint32_t width(uint32_t naturalCount) const {
    if (kind == kObject) return naturalCount > 0 ? 1 : 0;
    return naturalCount;
  }

  // Mapped index of natural index `i`; always < width(n) for i < n.
  uint32_t index(uint32_t naturalIndex) const {
    return kind == kObject ? 0 : naturalIndex;
  }

  bool operator==(const LockMap&) const = default;

  const char* to_string() const {
    switch (kind) {
      case kObject:
        return "object";
      case kVersioned:
        return "versioned";
      case kField:
      default:
        return "field";
    }
  }
};

// The process mode: SBD_LOCK_GRANULARITY=field|object|versioned, parsed
// once. Unset means field; any other value warns and runs as field.
LockMap process_lock_map();

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

  // Set by register_class()/array_class() before the class is
  // published, never written again.
  LockMap lockMap;

  bool slot_is_final(uint32_t slot) const { return (finalMask >> slot) & 1; }
};

// Registers a class. Must happen before any instance is allocated;
// typically from a function-local static initializer (see SBD_CLASS in
// ref.h). `staticSlots` may be empty. `map` fixes the class's lock
// granularity for the life of the process.
ClassInfo* register_class(const std::string& name, const std::vector<SlotDesc>& slots,
                          const std::vector<SlotDesc>& staticSlots = {},
                          LockMap map = process_lock_map());

// Registers an array class of `kind` elements; `map` as for
// register_class.
ClassInfo* register_array_class(const std::string& name, ElemKind kind,
                                LockMap map = process_lock_map());

// Built-in array classes (one per element kind, process mode).
ClassInfo* array_class(ElemKind kind);

// Enumerate all registered classes (GC roots: statics objects).
void for_each_class(const std::function<void(ClassInfo*)>& fn);

}  // namespace sbd::runtime
