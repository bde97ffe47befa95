// Graceful degradation (robustness layer): a section that keeps
// aborting is thrashing — each retry redoes the same work and loses the
// same conflict. After a bounded retry budget the runtime escalates the
// section to *serialized* execution: the thread takes a global
// serialization token before re-executing and keeps it (across further
// aborts) until the section finally commits. Escalated retries
// therefore never run concurrently with each other, which drains abort
// storms instead of letting them feed on themselves.
//
// Deadlock-freedom: the token is acquired only in the abort path, after
// LockEngine::release_all — a thread blocked on the token holds no SBD
// locks, so the token can never appear in a lock-wait cycle. The token
// holder may still block on (and be aborted by) ordinary locks; it
// keeps the token across those aborts and releases it at commit.
//
// This is deliberately NOT the inevitable-section mechanism
// (core/inevitable.h): an inevitable section must never abort, but an
// escalated section still can (e.g. losing a dueling upgrade), so it
// must stay an ordinary, abortable transaction.
#pragma once

#include <cstdint>

namespace sbd::core {

struct ThreadContext;

namespace degrade {

// Consecutive aborts of one logical section before escalation.
// 0 disables escalation entirely. Default: 64.
void set_retry_budget(uint64_t aborts);
uint64_t retry_budget();

// Process-wide escalation count since start (monotonic; also kept per
// thread in StatsCounters::escalations).
uint64_t escalations();

// True while the calling thread's section runs under the token.
bool serialized(const ThreadContext& tc);

// Called by abort_and_restart after locks are released: bumps the
// consecutive-abort count and, over budget, blocks for the token.
void on_abort(ThreadContext& tc);

// Called by commit_section: resets the abort count and releases the
// token if held.
void on_commit(ThreadContext& tc);

}  // namespace degrade
}  // namespace sbd::core
