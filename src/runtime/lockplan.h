// Lock-granularity planning — the policy side of the LockMap seam.
//
// The paper hard-wires one lock per field (Fig. 4). This layer decides,
// per class, which LockMap the instances use, from two sources:
//
//   1. SBD_LOCK_GRANULARITY=field|striped:<k>|object|versioned — the
//      process-wide mode, parsed once. Each mode applies its map at
//      class registration; `field` (the default) is bit-for-bit the
//      pre-LockMap behaviour; `versioned` runs every class on the
//      invisible-reader protocol (per-word version stamps, commit-time
//      read validation).
//   2. set_lock_granularity() — an explicit per-class pin from user code.
//
// Pin safety: a map change swaps the width and indexing of every
// instance's lock array, so it happens only under stop-the-world, and
// only for classes with no live lock state (see set_class_map below).
// The Fig. 5 fast path is preserved untouched: mutators poll *before*
// loading the locks pointer, so the load-to-use window contains no
// safepoint and no mutator can ever act on a mixed map.
#pragma once

#include <cstdint>

#include "runtime/class_info.h"

namespace sbd::runtime {

// User-facing granularity names (re-exported by api/sbd.h).
enum class LockGranularity : uint8_t { kField, kStriped, kObject, kVersioned };

namespace lockplan {

enum class Mode : uint8_t { kField, kStriped, kObject, kVersioned };

// Process-wide mode from SBD_LOCK_GRANULARITY (parsed once, cached).
Mode mode();
const char* mode_name();
uint32_t mode_stripes();  // <k> of striped:<k> (default 4)

// The map a freshly registered class starts with under mode().
LockMap initial_map();

LockMap make_map(LockGranularity g, uint32_t stripes);

// register_class()/array_class() hook: applies initial_map().
void on_class_registered(ClassInfo* ci);

// Switches `ci` to `m` under a bounded stop-the-world. Returns false,
// leaving the map unchanged, if live lock state vetoes the change or
// the world cannot be stopped within kPinStopBudgetNanos (a mutator
// that never reaches a safepoint); the caller may retry.
bool set_class_map(ClassInfo* ci, LockMap m);

// Budget for the pin's stop-the-world.
inline constexpr uint64_t kPinStopBudgetNanos = 2'000'000'000;

struct Counters {
  uint64_t replans = 0;  // class maps actually changed
  uint64_t vetoed = 0;   // changes skipped due to live lock state
  uint64_t wedged = 0;   // stop-the-worlds abandoned at the budget
};
Counters counters();

}  // namespace lockplan
}  // namespace sbd::runtime
