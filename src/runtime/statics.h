// Static fields and static-initialization guards (§4.1).
//
// Static slots live in a per-class managed "statics holder", so static
// accesses take the same field-granularity locks as instance accesses.
// Static initialization runs inside the accessing transaction behind a
// guard flag that is itself a transactional static slot: if the
// transaction aborts, the flag write rolls back and the next access
// re-runs the initializer — exactly the paper's re-executable static
// initialization.
#pragma once

#include <functional>

#include "runtime/field_access.h"
#include "runtime/ref.h"

namespace sbd::runtime {

inline int64_t static_read_i64(ClassInfo* cls, uint32_t slot) {
  return static_cast<int64_t>(tx_read(cls->statics, slot));
}

inline void static_write_i64(ClassInfo* cls, uint32_t slot, int64_t v) {
  tx_write(cls->statics, slot, static_cast<uint64_t>(v));
}

// Static-initialization guard. `guardSlot` must be a dedicated static
// i64 slot of `cls` (0 = uninitialized, 1 = initialized). The guard
// performs the check-and-run transactionally: the write lock on the
// guard slot serializes competing initializers, and a rollback reverts
// the flag so the initializer re-runs (§4.1).
inline void ensure_static_init(ClassInfo* cls, uint32_t guardSlot,
                               const std::function<void()>& initializer) {
  // Read first: the common case is "already initialized" and takes only
  // a read lock on the guard slot.
  if (static_read_i64(cls, guardSlot) != 0) return;
  // Upgrade to a write lock; after the upgrade we are the only writer,
  // so re-check and initialize.
  static_write_i64(cls, guardSlot, 1);
  initializer();
}

}  // namespace sbd::runtime
