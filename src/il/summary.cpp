#include "il/summary.h"

#include <algorithm>
#include <sstream>

#include "runtime/class_info.h"

namespace sbd::il {

// ---------------------------------------------------------------------------
// Must-locked dataflow state
// ---------------------------------------------------------------------------

// A fact encodes: base local | location (field index or element-index
// local) | field-vs-element | mode.
uint64_t fact_key(int base, int fieldOrIdx, bool isElem, LockMode mode) {
  return (static_cast<uint64_t>(base) << 32) |
         (static_cast<uint64_t>(static_cast<uint32_t>(fieldOrIdx)) << 2) |
         (isElem ? 2u : 0u) | (mode == LockMode::kWrite ? 1u : 0u);
}

// Versioned maps need no special casing in this analysis. Invisible
// reads exist only on the value paths (kGetF/kGetE -> tx_read*), which
// O1 never rewrites; a kLock on a versioned class acquires the covered
// word EXCLUSIVELY (runtime/field_access.h pins the IL path to
// versioned_acquire_write), so a held fact still means "this word
// cannot change until the section ends" — exactly the invariant
// redundant-lock elimination relies on. If kLock were ever lowered to
// an invisible read-set append instead, eliminating a covered re-lock
// would skip that read's stale check and admit zombie executions; any
// such change must add a versioned gate here.

namespace {

template <typename Set>
bool intersect_into(Set& dst, const Set& other) {
  bool changed = false;
  for (auto it = dst.begin(); it != dst.end();) {
    if (!other.count(*it)) {
      it = dst.erase(it);
      changed = true;
    } else {
      ++it;
    }
  }
  return changed;
}

}  // namespace

bool LockState::meet(const LockState& other) {
  if (other.top) return false;
  if (top) {
    top = false;
    facts = other.facts;
    mapped = other.mapped;
    newLocals = other.newLocals;
    callFacts = other.callFacts;
    callMapped = other.callMapped;
    return true;
  }
  bool changed = false;
  changed |= intersect_into(facts, other.facts);
  changed |= intersect_into(mapped, other.mapped);
  changed |= intersect_into(newLocals, other.newLocals);
  // Provenance is attribution, not coverage: a surviving fact counts as
  // call-established if it was call-established on ANY path (union,
  // pruned to the surviving facts).
  for (uint64_t k : other.callFacts)
    if (facts.count(k) && callFacts.insert(k).second) changed = true;
  for (auto it = callFacts.begin(); it != callFacts.end();) {
    if (!facts.count(*it)) {
      it = callFacts.erase(it);
      changed = true;
    } else {
      ++it;
    }
  }
  for (const MappedFact& mf : other.callMapped)
    if (mapped.count(mf) && callMapped.insert(mf).second) changed = true;
  for (auto it = callMapped.begin(); it != callMapped.end();) {
    if (!mapped.count(*it)) {
      it = callMapped.erase(it);
      changed = true;
    } else {
      ++it;
    }
  }
  return changed;
}

void LockState::kill_local(int l) {
  newLocals.erase(l);
  for (auto it = facts.begin(); it != facts.end();) {
    const int base = static_cast<int>(*it >> 32);
    const bool isElem = (*it & 2u) != 0;
    const int loc = static_cast<int>((*it >> 2) & 0x3FFFFFFF);
    if (base == l || (isElem && loc == l)) {
      callFacts.erase(*it);
      it = facts.erase(it);
    } else {
      ++it;
    }
  }
  // Mapped facts never reference an index local (element form exists
  // only for object maps, where the index is irrelevant), so only
  // the base can die.
  for (auto it = mapped.begin(); it != mapped.end();) {
    if (it->base == l) {
      callMapped.erase(*it);
      it = mapped.erase(it);
    } else {
      ++it;
    }
  }
}

void LockState::clear_all() {
  facts.clear();
  mapped.clear();
  newLocals.clear();
  callFacts.clear();
  callMapped.clear();
}

bool LockState::covers(int base, int fieldOrIdx, bool isElem, LockMode mode) const {
  if (newLocals.count(base)) return true;  // new instances need no lock
  if (facts.count(fact_key(base, fieldOrIdx, isElem, LockMode::kWrite))) return true;
  if (mode == LockMode::kRead &&
      facts.count(fact_key(base, fieldOrIdx, isElem, LockMode::kRead)))
    return true;
  return false;
}

bool LockState::covers_mapped(int base, uint32_t lockIdx,
                              const runtime::ClassInfo* cls) const {
  return mapped.count(MappedFact{base, lockIdx, true, cls}) ||
         mapped.count(MappedFact{base, lockIdx, false, cls});
}

bool LockState::covered_by_call(int base, int fieldOrIdx, bool isElem,
                                const runtime::ClassInfo* cls, int mappedIdx) const {
  if (callFacts.count(fact_key(base, fieldOrIdx, isElem, LockMode::kWrite)) ||
      callFacts.count(fact_key(base, fieldOrIdx, isElem, LockMode::kRead)))
    return true;
  if (mappedIdx >= 0 && cls != nullptr) {
    const auto idx = static_cast<uint32_t>(mappedIdx);
    if (callMapped.count(MappedFact{base, idx, true, cls}) ||
        callMapped.count(MappedFact{base, idx, false, cls}))
      return true;
  }
  return false;
}

bool call_may_split(const Instr& i, const Module& m) {
  const Function* callee = m.get(i.calleeName);
  return callee == nullptr || callee->canSplit;
}

// Mapped lock index, when the static class annotation and its LockMap
// determine it: any map kind for field locks (constant field index),
// object maps for element locks (every index hits word 0 regardless of
// the index local's value). A class's map is fixed at registration, so
// the index stays valid for the life of the optimized module.
int mapped_lock_index(const Instr& i) {
  const bool isElem = i.c >= 0;
  if (i.cls == nullptr) return -1;
  const runtime::LockMap map = i.cls->lockMap;
  if (!isElem) return static_cast<int>(map.index(static_cast<uint32_t>(i.b)));
  if (map.kind == runtime::LockMap::kObject) return 0;
  return -1;
}

void transfer(LockState& st, const Instr& i, const Module& m, const Summaries* sums,
              bool* coveredLock) {
  if (coveredLock) *coveredLock = false;
  switch (i.op) {
    case Op::kLock: {
      const bool isElem = i.c >= 0;
      const int loc = isElem ? i.c : i.b;
      const int mappedIdx = mapped_lock_index(i);
      bool covered = st.covers(i.a, loc, isElem, i.mode);
      if (!covered && mappedIdx >= 0 && i.mode == LockMode::kRead)
        covered = st.covers_mapped(i.a, static_cast<uint32_t>(mappedIdx), i.cls);
      if (covered) {
        if (coveredLock) *coveredLock = true;
        return;  // no new fact; the covering fact remains
      }
      st.facts.insert(fact_key(i.a, loc, isElem, i.mode));
      if (mappedIdx >= 0)
        st.mapped.insert(MappedFact{i.a, static_cast<uint32_t>(mappedIdx),
                                    i.mode == LockMode::kWrite, i.cls});
      return;
    }
    case Op::kSplit:
      st.clear_all();
      return;
    case Op::kCall: {
      const LockSummary* cs = nullptr;
      if (sums) {
        auto it = sums->find(i.calleeName);
        if (it != sums->end()) cs = &it->second;
      }
      // Translate the callee's exit locks onto the caller's argument
      // locals BEFORE killing the destination (the argument locals are
      // read at the call, before the return value lands).
      std::vector<std::pair<uint64_t, bool>> genPlain;  // key, (unused)
      std::vector<MappedFact> genMapped;
      if (cs != nullptr && !cs->top) {
        const int nargs = static_cast<int>(i.args.size());
        for (const SummaryFact& sf : cs->exitLocks) {
          if (sf.param < 0 || sf.param >= nargs) continue;
          const int base = i.args[static_cast<size_t>(sf.param)];
          int loc = sf.loc;
          if (sf.isElem) {
            if (sf.loc < 0 || sf.loc >= nargs) continue;
            loc = i.args[static_cast<size_t>(sf.loc)];
          }
          // READ coverage only, whatever the callee acquired: exporting
          // write coverage would let a later write lock (and its undo
          // logging) be eliminated across the call — unsound under
          // coarse maps (summary.h, soundness note 2).
          genPlain.emplace_back(fact_key(base, loc, sf.isElem, LockMode::kRead), false);
        }
        for (const MappedSummaryFact& mf : cs->exitMapped) {
          if (mf.param < 0 || mf.param >= nargs) continue;
          if (mf.cls == nullptr) continue;
          genMapped.push_back(MappedFact{i.args[static_cast<size_t>(mf.param)],
                                         mf.lockIdx, /*write=*/false, mf.cls});
        }
      }
      const bool clears =
          cs != nullptr ? (cs->top || cs->maySplit) : call_may_split(i, m);
      if (clears) st.clear_all();
      const int d = defined_local(i);
      if (d >= 0) st.kill_local(d);
      for (const auto& [key, unused] : genPlain) {
        (void)unused;
        const int base = static_cast<int>(key >> 32);
        const bool isElem = (key & 2u) != 0;
        const int loc = static_cast<int>((key >> 2) & 0x3FFFFFFF);
        if (base == d || (isElem && loc == d)) continue;  // clobbered by the result
        if (st.facts.insert(key).second) st.callFacts.insert(key);
      }
      for (const MappedFact& mf : genMapped) {
        if (mf.base == d) continue;
        if (st.mapped.insert(mf).second) st.callMapped.insert(mf);
      }
      if (cs != nullptr && !cs->top && cs->returnsNew && d >= 0)
        st.newLocals.insert(d);
      return;
    }
    case Op::kNew:
    case Op::kNewArr: {
      st.kill_local(i.a);
      st.newLocals.insert(i.a);
      return;
    }
    case Op::kMove: {
      // Copy propagation: after a = b both locals alias the same object,
      // so facts on b transfer to a. This is what lets the analysis see
      // through the argument moves the inliner introduces.
      const bool srcNew = st.newLocals.count(i.b) > 0;
      std::vector<std::pair<uint64_t, bool>> copied;  // key, call-provenance
      for (uint64_t k : st.facts) {
        if (static_cast<int>(k >> 32) == i.b)
          copied.emplace_back((k & 0xFFFFFFFFull) | (static_cast<uint64_t>(i.a) << 32),
                              st.callFacts.count(k) > 0);
      }
      std::vector<std::pair<MappedFact, bool>> copiedMapped;
      for (const MappedFact& mf : st.mapped) {
        if (mf.base == i.b) {
          MappedFact c = mf;
          c.base = i.a;
          copiedMapped.emplace_back(c, st.callMapped.count(mf) > 0);
        }
      }
      st.kill_local(i.a);
      if (i.a != i.b) {
        for (const auto& [k, viaCall] : copied) {
          st.facts.insert(k);
          if (viaCall) st.callFacts.insert(k);
        }
        for (const auto& [mf, viaCall] : copiedMapped) {
          st.mapped.insert(mf);
          if (viaCall) st.callMapped.insert(mf);
        }
        if (srcNew) st.newLocals.insert(i.a);
      }
      return;
    }
    default: {
      const int d = defined_local(i);
      if (d >= 0) st.kill_local(d);
      return;
    }
  }
}

std::vector<LockState> solve_must_locked(const Function& f, const Module& m,
                                         const Summaries* sums) {
  const size_t n = f.blocks.size();
  auto preds = predecessors(f);
  std::vector<LockState> in(n), out(n);
  if (n == 0) return in;
  in[0].top = false;  // entry starts with no facts

  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t b = 0; b < n; b++) {
      LockState cur = in[b];
      for (size_t p = 0; p < preds[b].size(); p++)
        cur.meet(out[static_cast<size_t>(preds[b][p])]);
      if (b == 0) cur.top = false;
      LockState o = cur;
      if (!o.top) {
        for (const Instr& i : f.blocks[b].instrs) {
          transfer(o, i, m, sums, nullptr);
          if (i.op == Op::kRet) break;  // the rest of the block is unreachable
        }
      }
      if (!(o == out[b])) {
        out[b] = std::move(o);
        changed = true;
      }
      in[b] = std::move(cur);
    }
  }
  return in;
}

// ---------------------------------------------------------------------------
// Summary computation: bottom-up over call-graph SCCs
// ---------------------------------------------------------------------------

namespace {

// Locals never reassigned anywhere in the function. Only facts rooted
// at stable parameters survive translation to a call site: a fact on a
// reassigned parameter local describes whatever object it held LAST,
// not the caller's argument.
std::vector<bool> stable_params(const Function& f) {
  std::vector<bool> stable(static_cast<size_t>(f.numParams), true);
  for (const Block& b : f.blocks)
    for (const Instr& i : b.instrs) {
      const int d = defined_local(i);
      if (d >= 0 && d < f.numParams) stable[static_cast<size_t>(d)] = false;
    }
  return stable;
}

LockSummary summarize_one(const Function& f, const Module& m, const Summaries& done) {
  LockSummary s;
  s.top = false;

  // maySplit: a split instruction, or any call whose callee may split.
  // (A non-canSplit function can never split transitively — V1/V2/V3 —
  // but the summary is computed from the code, not the modifier, so a
  // canSplit function that never actually splits keeps callers' facts.)
  s.maySplit = false;
  for (const Block& b : f.blocks) {
    for (const Instr& i : b.instrs) {
      if (i.op == Op::kSplit) s.maySplit = true;
      if (i.op == Op::kCall) {
        auto it = done.find(i.calleeName);
        if (it == done.end() || it->second.top || it->second.maySplit)
          s.maySplit = true;
      }
    }
  }

  // Exit state: intersection of the dataflow state at every return
  // point (kRet or falling off an exit block). kSplit clears facts
  // inside the walk, so surviving exit facts were (re)acquired after
  // any split on every path — still held when the caller resumes.
  const auto in = solve_must_locked(f, m, &done);
  LockState exitState;  // top: meet identity
  bool returnsNew = true;
  bool sawExit = false;
  for (size_t b = 0; b < f.blocks.size(); b++) {
    if (b >= in.size() || in[b].top) continue;  // unreachable
    LockState st = in[b];
    bool returned = false;
    for (const Instr& i : f.blocks[b].instrs) {
      if (i.op == Op::kRet) {
        sawExit = true;
        returnsNew &= i.a >= 0 && st.newLocals.count(i.a) > 0;
        exitState.meet(st);
        returned = true;
        break;
      }
      transfer(st, i, m, &done, nullptr);
    }
    if (!returned && f.blocks[b].is_exit()) {  // implicit void return
      sawExit = true;
      returnsNew = false;
      exitState.meet(st);
    }
  }
  if (!sawExit || exitState.top) return s;  // never returns: nothing to export
  s.returnsNew = returnsNew;

  const auto stable = stable_params(f);
  auto is_stable_param = [&](int l) {
    return l >= 0 && l < f.numParams && stable[static_cast<size_t>(l)];
  };
  std::set<SummaryFact> plain;
  for (uint64_t k : exitState.facts) {
    const int base = static_cast<int>(k >> 32);
    const bool isElem = (k & 2u) != 0;
    const int loc = static_cast<int>((k >> 2) & 0x3FFFFFFF);
    const LockMode mode = (k & 1u) ? LockMode::kWrite : LockMode::kRead;
    if (!is_stable_param(base)) continue;
    if (isElem && !is_stable_param(loc)) continue;
    plain.insert(SummaryFact{base, loc, isElem, mode});
  }
  std::set<MappedSummaryFact> mappedOut;
  for (const MappedFact& mf : exitState.mapped) {
    if (!is_stable_param(mf.base)) continue;
    mappedOut.insert(MappedSummaryFact{mf.base, mf.lockIdx, mf.write,
                                       const_cast<runtime::ClassInfo*>(mf.cls)});
  }
  s.exitLocks.assign(plain.begin(), plain.end());
  s.exitMapped.assign(mappedOut.begin(), mappedOut.end());
  return s;
}

// Tarjan SCC over the call graph (edges caller -> callee). SCCs pop
// callees-first, which is exactly the bottom-up order the summaries
// need; any SCC with more than one member or a self-edge is recursion
// and gets the conservative top element.
struct Tarjan {
  const Module& m;
  std::map<const Function*, int> index, low;
  std::map<const Function*, bool> onStack;
  std::vector<const Function*> stack;
  int next = 0;
  std::vector<std::vector<const Function*>> sccs;  // callees-first

  explicit Tarjan(const Module& mod) : m(mod) {}

  void strongconnect(const Function* f) {
    index[f] = low[f] = next++;
    stack.push_back(f);
    onStack[f] = true;
    for (const Block& b : f->blocks)
      for (const Instr& i : b.instrs) {
        if (i.op != Op::kCall) continue;
        const Function* callee = m.get(i.calleeName);
        if (callee == nullptr) continue;  // conservatively handled at transfer time
        if (!index.count(callee)) {
          strongconnect(callee);
          low[f] = std::min(low[f], low[callee]);
        } else if (onStack[callee]) {
          low[f] = std::min(low[f], index[callee]);
        }
      }
    if (low[f] == index[f]) {
      std::vector<const Function*> scc;
      const Function* w;
      do {
        w = stack.back();
        stack.pop_back();
        onStack[w] = false;
        scc.push_back(w);
      } while (w != f);
      sccs.push_back(std::move(scc));
    }
  }
};

bool has_self_call(const Function& f) {
  for (const Block& b : f.blocks)
    for (const Instr& i : b.instrs)
      if (i.op == Op::kCall && i.calleeName == f.name) return true;
  return false;
}

}  // namespace

Summaries compute_summaries(const Module& m) {
  Tarjan t(m);
  for (const auto& [name, f] : m.functions)
    if (!t.index.count(f.get())) t.strongconnect(f.get());

  Summaries out;
  for (const auto& scc : t.sccs) {
    if (scc.size() > 1 || has_self_call(*scc.front())) {
      for (const Function* f : scc) out[f->name] = LockSummary{};  // top
      continue;
    }
    const Function* f = scc.front();
    out[f->name] = summarize_one(*f, m, out);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Dumps
// ---------------------------------------------------------------------------

std::string to_string(const LockSummary& s) {
  if (s.top) return "TOP (recursive or unknown: may split, holds nothing)";
  std::ostringstream os;
  os << (s.maySplit ? "maySplit" : "noSplit");
  if (s.returnsNew) os << " returnsNew";
  os << " holds=[";
  bool first = true;
  for (const SummaryFact& f : s.exitLocks) {
    if (!first) os << ", ";
    first = false;
    if (f.isElem)
      os << "p" << f.param << "[p" << f.loc << "]";
    else
      os << "p" << f.param << ".f" << f.loc;
    os << (f.mode == LockMode::kWrite ? " W" : " R");
  }
  os << "]";
  if (!s.exitMapped.empty()) {
    os << " mapped=[";
    first = true;
    for (const MappedSummaryFact& f : s.exitMapped) {
      if (!first) os << ", ";
      first = false;
      os << "p" << f.param << " w" << f.lockIdx << (f.write ? " W" : " R") << " of "
         << (f.cls != nullptr ? f.cls->name : std::string("?"));
    }
    os << "]";
  }
  return os.str();
}

std::string dump_summaries(const Module& m, const Summaries& s) {
  std::ostringstream os;
  for (const auto& [name, fn] : m.functions) {
    (void)fn;
    auto it = s.find(name);
    os << name << ": "
       << (it == s.end() ? std::string("<no summary>") : to_string(it->second)) << "\n";
  }
  return os.str();
}

}  // namespace sbd::il
