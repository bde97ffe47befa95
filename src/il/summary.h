// Interprocedural lock summaries and the shared must-locked dataflow.
//
// A LockSummary is the per-function fact base the paper's O1 pass was
// missing at call boundaries: "on every path to every return, this
// function holds a lock of mode M on word W of parameter P, and no
// split can follow that acquisition". Summaries are computed bottom-up
// over the SCCs of the call graph (callees before callers, in the
// Locksynth style of deriving per-callee synchronization obligations);
// recursive or mutually-recursive functions get the conservative top
// element (no facts, may split).
//
// Soundness hinges on two SBD properties (docs/SEMANTICS.md):
//   1. Locks are released only when the section ends (split/commit).
//      A lock that is must-held at a callee's exit — computed with
//      kSplit clearing all facts, so surviving facts were re-acquired
//      AFTER any split on every path — is therefore still held in the
//      caller when the call returns.
//   2. Only READ coverage is exported to callers. Eliminating a write
//      lock would also eliminate its undo logging, and under coarse
//      LockMaps an owned write re-hit must re-log the specific slot;
//      a callee's summary cannot guarantee that for the caller's slot.
//
// The must-locked dataflow (LockState/transfer/solve_must_locked) is
// shared verbatim by O1 (opt.cpp), the verifier's no-lock-coverage
// check (verify.cpp), and summary construction itself, so the three
// can never drift apart on what "covered" means.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "il/ir.h"

namespace sbd::il {

// One callee-side obligation: the callee must-locks `loc` of parameter
// `param` (both callee parameter indices for the element form) in
// `mode` on every path to every return, after any split. Parameters
// named here are stable: never reassigned inside the callee.
struct SummaryFact {
  int param = -1;  // base object: callee parameter index
  int loc = -1;    // field index, or — when isElem — the parameter index of the
                   // element-index local (also stable)
  bool isElem = false;
  LockMode mode = LockMode::kRead;

  bool operator<(const SummaryFact& o) const {
    if (param != o.param) return param < o.param;
    if (loc != o.loc) return loc < o.loc;
    if (isElem != o.isElem) return isElem < o.isElem;
    return mode < o.mode;
  }
};

// The LockMap-mapped form: the callee must-holds the lock WORD that
// `cls`'s (static) map assigns to `lockIdx` of parameter `param`.
struct MappedSummaryFact {
  int param = -1;
  uint32_t lockIdx = 0;
  bool write = false;
  runtime::ClassInfo* cls = nullptr;

  bool operator<(const MappedSummaryFact& o) const {
    if (param != o.param) return param < o.param;
    if (lockIdx != o.lockIdx) return lockIdx < o.lockIdx;
    if (write != o.write) return write < o.write;
    return cls < o.cls;
  }
};

struct LockSummary {
  bool top = true;       // unknown effects: recursion, SCC member, absent callee
  bool maySplit = true;  // may end the section, releasing every held lock
  bool returnsNew = false;  // every return yields a this-transaction-new object
  std::vector<SummaryFact> exitLocks;        // sorted; empty when top
  std::vector<MappedSummaryFact> exitMapped;  // sorted; empty when top
};

// Keyed by function name (the call instruction's `calleeName`).
using Summaries = std::map<std::string, LockSummary>;

// Bottom-up SCC traversal; O(total instructions) per function visit.
Summaries compute_summaries(const Module& m);

// Human-readable dumps (sbdil --dump-summaries, CI failure artifacts).
std::string to_string(const LockSummary& s);
std::string dump_summaries(const Module& m, const Summaries& s);

// --- Shared must-locked dataflow -------------------------------------------

// Facts keyed through a class's LockMap: "this transaction holds the
// lock WORD that cls's map assigns to mapped index `lockIdx` of the
// object in local `base`". These let locks on *different* slots that
// share a word dedupe statically — but only READ locks may be
// eliminated this way: eliminating a write lock would also skip its
// undo logging (the no-lock store never reaches the runtime's
// coarse-map owned-path re-log), and there is no covering undo entry
// for a slot that was never written before.
struct MappedFact {
  int base;
  uint32_t lockIdx;
  bool write;
  const runtime::ClassInfo* cls;
  bool operator<(const MappedFact& o) const {
    if (base != o.base) return base < o.base;
    if (lockIdx != o.lockIdx) return lockIdx < o.lockIdx;
    if (write != o.write) return write < o.write;
    return cls < o.cls;
  }
  bool operator==(const MappedFact& o) const {
    return base == o.base && lockIdx == o.lockIdx && write == o.write && cls == o.cls;
  }
};

// The must-locked lattice element flowing through one program point.
// `callFacts`/`callMapped` track which facts arrived via a callee
// summary — provenance for the interprocedural-elimination statistics
// only; they never affect coverage decisions.
struct LockState {
  bool top = true;  // "unvisited": identity of the intersection meet
  std::set<uint64_t> facts;
  std::set<MappedFact> mapped;
  std::set<int> newLocals;  // locals known to hold this-transaction-new objects
  std::set<uint64_t> callFacts;
  std::set<MappedFact> callMapped;

  bool meet(const LockState& other);  // returns true if changed
  void kill_local(int l);
  void clear_all();
  bool covers(int base, int fieldOrIdx, bool isElem, LockMode mode) const;
  // Read coverage through the LockMap: a held word — read- or
  // write-locked — covers any read it protects.
  bool covers_mapped(int base, uint32_t lockIdx, const runtime::ClassInfo* cls) const;
  // Whether the covering fact(s) for this location came from a callee
  // summary (for OptStats::crossCallEliminated attribution).
  bool covered_by_call(int base, int fieldOrIdx, bool isElem,
                       const runtime::ClassInfo* cls, int mappedIdx) const;

  bool operator==(const LockState& o) const {
    return top == o.top && facts == o.facts && mapped == o.mapped &&
           newLocals == o.newLocals && callFacts == o.callFacts &&
           callMapped == o.callMapped;
  }
};

uint64_t fact_key(int base, int fieldOrIdx, bool isElem, LockMode mode);

// The statically-determined mapped lock index of a kLock, or -1 when
// the class is unknown, its map may still change, or the element index
// is dynamic under a non-object map.
int mapped_lock_index(const Instr& i);

// Applies one instruction's transfer function. With `sums`, kCall uses
// the callee's LockSummary (facts survive non-splitting callees, and
// the callee's exit locks are translated onto the caller's argument
// locals as read coverage); without, kCall is handled with the
// intraprocedural canSplit approximation only. `coveredLock` is set for
// kLock instructions whose location is already covered.
void transfer(LockState& st, const Instr& i, const Module& m, const Summaries* sums,
              bool* coveredLock);

// Solves the forward must-locked dataflow and returns the block-entry
// states (in[0] is the entry block's, never top). Walk each block with
// transfer() to reconstruct intermediate points.
std::vector<LockState> solve_must_locked(const Function& f, const Module& m,
                                         const Summaries* sums);

// Intraprocedural approximation used when no summaries are available:
// unknown or canSplit callees may split the section.
bool call_may_split(const Instr& i, const Module& m);

}  // namespace sbd::il
