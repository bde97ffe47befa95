// Public SBD API facade — the language constructs of Table 2, rendered
// as a C++ library:
//
//   sbd::split()            the split keyword: ends the current atomic
//                           section, starts the next one
//   sbd::CanSplitScope      the canSplit method modifier (dynamic check)
//   sbd::allow_split(fn)    the allowSplit call-site modifier
//   sbd::NoSplitScope       the noSplit { } composability block (§3.7):
//                           splits inside are ignored
//   sbd::threads::SbdThread thread start/join with SBD semantics
//   sbd::threads::wait_on / notify_all   condition signalling
//
// Static checking of the canSplit/allowSplit rules — which Java gets
// from the bytecode transformer — is reproduced faithfully in the
// SBD-IL verifier (src/il); the native API enforces the same rules
// dynamically.
#pragma once

#include "common/check.h"
#include "core/transaction.h"
#include "runtime/field_access.h"
#include "runtime/heap.h"
#include "runtime/mstring.h"
#include "runtime/ref.h"
#include "runtime/statics.h"
#include "threads/monitor.h"
#include "threads/sbd_thread.h"

namespace sbd {

// The calling thread's SBD context. Hot loops should resolve this once
// and pass it to the tc-taking accessor/split overloads instead of
// paying a TLS lookup per operation.
inline core::ThreadContext& context() { return core::tls_context(); }

// Ends the current atomic section and begins a new one, releasing all
// locks and making all effects (memory and buffered I/O) visible.
// Ignored inside a noSplit block; otherwise requires a canSplit scope.
inline void split(core::ThreadContext& tc) {
  SBD_CHECK_MSG(tc.txn.active(), "split outside an atomic section");
  if (tc.noSplitDepth > 0) return;  // §3.7: composition suppresses splits
  SBD_CHECK_MSG(tc.canSplitDepth > 0, "split in a method without canSplit");
  core::split_section(tc);
}

inline void split() { split(core::tls_context()); }

// Marks the dynamic extent of a canSplit method. Constructors must not
// open one (uninitialized instances must not escape a section, §2.2).
class CanSplitScope {
 public:
  CanSplitScope() : tc_(core::tls_context()) {
    SBD_CHECK_MSG(tc_.canSplitDepth > 0 || tc_.allowSplitArmed,
                  "canSplit method invoked without allowSplit at the call site");
    tc_.allowSplitArmed = false;
    tc_.canSplitDepth++;
  }
  ~CanSplitScope() { tc_.canSplitDepth--; }
  CanSplitScope(const CanSplitScope&) = delete;
  CanSplitScope& operator=(const CanSplitScope&) = delete;

 private:
  core::ThreadContext& tc_;
};

// Marks a call site that permits the callee to split (allowSplit). The
// tc-taking overload is for code that already holds the cached context
// (the pattern the IL backends compile to: one tls_context() per
// section, cached through every handler and call site).
template <typename Fn>
auto allow_split(core::ThreadContext& tc, Fn&& fn) {
  SBD_CHECK_MSG(tc.canSplitDepth > 0, "allowSplit in a method without canSplit");
  tc.allowSplitArmed = true;
  struct Disarm {
    core::ThreadContext& tc;
    ~Disarm() { tc.allowSplitArmed = false; }
  } disarm{tc};
  return fn();
}

template <typename Fn>
auto allow_split(Fn&& fn) {
  return allow_split(core::tls_context(), std::forward<Fn>(fn));
}

// noSplit { ... } — composes canSplit operations into one atomic
// section by suppressing their splits (§3.7).
class NoSplitScope {
 public:
  NoSplitScope() : tc_(core::tls_context()) { tc_.noSplitDepth++; }
  ~NoSplitScope() { tc_.noSplitDepth--; }
  NoSplitScope(const NoSplitScope&) = delete;
  NoSplitScope& operator=(const NoSplitScope&) = delete;

 private:
  core::ThreadContext& tc_;
};

// Defers a foreign (non-transactional) action to the current section's
// commit — the Table 2 "foreign code execution" wrapper for effects
// that have no dedicated transactional adapter. The action runs exactly
// once, after the section's locks are released; if the section aborts,
// it never runs. Outside a section the action runs immediately.
template <typename Fn>
void on_commit(Fn&& action) {
  auto* tc = core::tls_context_if_present();
  if (tc && tc->txn.active())
    tc->txn.defer(std::function<void()>(std::forward<Fn>(action)));
  else
    action();
}

// Re-exports for user code.
using runtime::ByteArray;
using runtime::F64Array;
using runtime::GlobalRoot;
using runtime::I64Array;
using runtime::MString;
using runtime::RefArray;
using runtime::TypedRef;
using threads::in_sbd;
using threads::notify_all;
using threads::notify_one;
using threads::run_sbd;
using threads::SbdThread;
using threads::wait_on;

}  // namespace sbd
