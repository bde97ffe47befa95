// Condition signaling over managed objects (§3.5, Figure 6).
//
//   wait_on(obj)     — splits (committing the section and releasing all
//                      locks including the ones on the waited condition,
//                      plus the transaction id), blocks until a signal,
//                      then begins a new section. The caller re-checks
//                      the condition in a loop, as with Java monitors.
//   notify_all(obj)  — deferred until the signalling section commits, so
//                      an aborted section never signals and the
//                      condition's locks are already released when
//                      waiters wake (no thundering-herd reconvoy).
//
// The lost-wakeup protocol relies on the SBD locking discipline: the
// waiter still holds a read lock on the condition when it takes its
// ticket, so a signaller — which needs the write lock — can only commit
// (and bump the ticket) after the waiter's split released it.
#pragma once

#include <cstddef>

#include "core/fwd.h"

namespace sbd::threads {

// Must be called inside an atomic section.
void wait_on(runtime::ManagedObject* obj);

// Deferred to commit when inside a section; immediate otherwise.
void notify_all(runtime::ManagedObject* obj);
void notify_one(runtime::ManagedObject* obj);

// Objects with at least one thread in wait_on (each has one wait set,
// freed when its last waiter leaves).
size_t waited_objects();

}  // namespace sbd::threads
