#include "il/compile.h"

#include <string>
#include <utility>

#include "api/sbd.h"
#include "common/check.h"
#include "il/lowering.h"
#include "tio/console.h"

// Direct threading uses GNU labels-as-values; the runtime already
// requires a GNU-compatible compiler (core/fastctx.cpp is GNU asm).

namespace sbd::il {

namespace {

using runtime::ManagedObject;

ManagedObject* as_obj(int64_t v) { return reinterpret_cast<ManagedObject*>(v); }

// The execution core. Called with `labelsOut` non-null (and f null)
// once at startup to harvest the handler label table for compile() —
// the null-function-call idiom that lets CInstrs carry their handler
// address directly.
int64_t exec_c(core::ThreadContext& tc, const CompiledFunction* f, const int64_t* args,
               int depth, const void* const** labelsOut) {
  // Order must match COp exactly.
  static const void* const labels[] = {
      &&H_kCConst,     &&H_kCMove,       &&H_kCBin,      &&H_kCNew,
      &&H_kCNewArr,    &&H_kCLockReadF,  &&H_kCLockWriteF, &&H_kCLockReadE,
      &&H_kCLockWriteE, &&H_kCGetF,      &&H_kCSetF,     &&H_kCGetFNl,
      &&H_kCSetFNl,    &&H_kCGetE,       &&H_kCSetE,     &&H_kCGetENl,
      &&H_kCSetENl,    &&H_kCLen,        &&H_kCCall,     &&H_kCSplit,
      &&H_kCPrint,     &&H_kCBr,         &&H_kCCbr,      &&H_kCCmpBr,
      &&H_kCRet,
  };
  static_assert(sizeof(labels) / sizeof(labels[0]) ==
                static_cast<size_t>(COp::kCCount));
  if (labelsOut) {
    *labelsOut = labels;
    return 0;
  }

  SBD_CHECK_MSG(depth < kMaxDepth, "IL call depth exceeded");
  CanSplitScope scope(tc, f->canSplit, f->needsScope);

  // Calls run inline in this dispatch loop on an explicit frame stack
  // instead of recursing through exec_c: a call is a frame push (no
  // C++ prologue, no register spill of the dispatch state, no double
  // argument copy), a return is a pop. Frames are carved from a stack
  // arena so the STM checkpoint/restore abort path still rolls every
  // live IL frame back for free (checkpoint.h copies the stack segment)
  // and the conservative GC still sees managed refs held in locals.
  // The arena bound is exactly the interpreter's worst case: kMaxDepth
  // recursive frames of kMaxLocals slots. compile() validated every
  // local operand against numLocals, so each frame is numLocals slots
  // with only those zeroed (the interpreter allocates and zeroes all
  // kMaxLocals per call; unreferencable slots are unobservable).
  struct InlineFrame {
    const CompiledFunction* f;  // caller to resume
    const CInstr* retPc;        // its kCCall
    int64_t* locals;
    int32_t savedDepth;  // scope == 2: canSplitDepth to restore
    uint8_t scope;       // 0 = elided, 1 = canSplit, 2 = non-canSplit mask
  };
  InlineFrame frames[kMaxDepth];
  int fp = 0;
  int64_t arena[kMaxDepth * kMaxLocals];
  const CompiledFunction* cf = f;
  int64_t* locals = arena;
  int64_t* arenaTop = arena + cf->numLocals;
  for (int i = 0; i < cf->numLocals; i++) locals[i] = 0;
  for (int i = 0; i < cf->numParams; i++) locals[i] = args[i];

  int64_t result = 0;
  const CInstr* base = cf->code.data();
  const CInstr* pc = base;

#define HANDLER(n) H_##n:
#define DISPATCH() goto* const_cast<void*>(pc->handler)
#define NEXT()  \
  do {          \
    ++pc;       \
    DISPATCH(); \
  } while (0)
#define JUMP(t)      \
  do {               \
    pc = base + (t); \
    DISPATCH();      \
  } while (0)
  DISPATCH();

  HANDLER(kCConst) {
    locals[pc->a] = pc->imm;
    NEXT();
  }
  HANDLER(kCMove) {
    locals[pc->a] = locals[pc->b];
    NEXT();
  }
  HANDLER(kCBin) {
    locals[pc->a] = eval_bin(static_cast<BinOp>(pc->sub), locals[pc->b], locals[pc->c]);
    NEXT();
  }
  HANDLER(kCNew) {
    locals[pc->a] =
        reinterpret_cast<int64_t>(runtime::Heap::instance().alloc_object(pc->cls));
    NEXT();
  }
  HANDLER(kCNewArr) {
    locals[pc->a] = reinterpret_cast<int64_t>(runtime::Heap::instance().alloc_array(
        static_cast<runtime::ElemKind>(pc->sub), static_cast<uint64_t>(locals[pc->b])));
    NEXT();
  }
  HANDLER(kCLockReadF) {
    ManagedObject* o = as_obj(locals[pc->a]);
    SBD_CHECK_MSG(o != nullptr, "IL null dereference in lock");
    runtime::tx_lock_read(tc, o, static_cast<uint32_t>(pc->b));
    NEXT();
  }
  HANDLER(kCLockWriteF) {
    ManagedObject* o = as_obj(locals[pc->a]);
    SBD_CHECK_MSG(o != nullptr, "IL null dereference in lock");
    const auto slot = static_cast<uint32_t>(pc->b);
    runtime::tx_lock_write(tc, o, slot, &o->slots()[slot]);
    NEXT();
  }
  HANDLER(kCLockReadE) {
    ManagedObject* o = as_obj(locals[pc->a]);
    SBD_CHECK_MSG(o != nullptr, "IL null dereference in lock");
    runtime::tx_lock_read(tc, o, static_cast<uint64_t>(locals[pc->c]));
    NEXT();
  }
  HANDLER(kCLockWriteE) {
    ManagedObject* o = as_obj(locals[pc->a]);
    SBD_CHECK_MSG(o != nullptr, "IL null dereference in lock");
    const auto idx = static_cast<uint64_t>(locals[pc->c]);
    runtime::tx_lock_write(tc, o, idx, &o->array_data()[idx]);
    NEXT();
  }
  HANDLER(kCGetF) {
    ManagedObject* o = as_obj(locals[pc->b]);
    SBD_CHECK_MSG(o != nullptr, "IL null dereference");
    locals[pc->a] =
        static_cast<int64_t>(runtime::tx_read(tc, o, static_cast<uint32_t>(pc->c)));
    NEXT();
  }
  HANDLER(kCSetF) {
    ManagedObject* o = as_obj(locals[pc->a]);
    SBD_CHECK_MSG(o != nullptr, "IL null dereference");
    runtime::tx_write(tc, o, static_cast<uint32_t>(pc->b),
                      static_cast<uint64_t>(locals[pc->c]));
    NEXT();
  }
  HANDLER(kCGetFNl) {
    // No-lock accesses ride on a hoisted kLock; relaxed atomics because
    // versioned-map invisible readers may overlap them (see interp.cpp).
    ManagedObject* o = as_obj(locals[pc->b]);
    locals[pc->a] = static_cast<int64_t>(
        reinterpret_cast<const std::atomic<uint64_t>*>(&o->slots()[pc->c])
            ->load(std::memory_order_relaxed));
    NEXT();
  }
  HANDLER(kCSetFNl) {
    ManagedObject* o = as_obj(locals[pc->a]);
    reinterpret_cast<std::atomic<uint64_t>*>(&o->slots()[pc->b])
        ->store(static_cast<uint64_t>(locals[pc->c]), std::memory_order_relaxed);
    NEXT();
  }
  HANDLER(kCGetE) {
    ManagedObject* o = as_obj(locals[pc->b]);
    locals[pc->a] = static_cast<int64_t>(
        runtime::tx_read_elem(tc, o, static_cast<uint64_t>(locals[pc->c])));
    NEXT();
  }
  HANDLER(kCSetE) {
    ManagedObject* o = as_obj(locals[pc->a]);
    runtime::tx_write_elem(tc, o, static_cast<uint64_t>(locals[pc->b]),
                           static_cast<uint64_t>(locals[pc->c]));
    NEXT();
  }
  HANDLER(kCGetENl) {
    ManagedObject* o = as_obj(locals[pc->b]);
    locals[pc->a] = static_cast<int64_t>(
        reinterpret_cast<const std::atomic<uint64_t>*>(
            &o->array_data()[static_cast<uint64_t>(locals[pc->c])])
            ->load(std::memory_order_relaxed));
    NEXT();
  }
  HANDLER(kCSetENl) {
    ManagedObject* o = as_obj(locals[pc->a]);
    reinterpret_cast<std::atomic<uint64_t>*>(
        &o->array_data()[static_cast<uint64_t>(locals[pc->b])])
        ->store(static_cast<uint64_t>(locals[pc->c]), std::memory_order_relaxed);
    NEXT();
  }
  HANDLER(kCLen) {
    locals[pc->a] = static_cast<int64_t>(runtime::array_length(as_obj(locals[pc->b])));
    NEXT();
  }
  HANDLER(kCCall) {
    const CallSite& cs = cf->calls[static_cast<size_t>(pc->aux)];
    const CompiledFunction* ce = cs.callee;
    SBD_CHECK_MSG(depth + fp + 1 < kMaxDepth, "IL call depth exceeded");
    if (cs.allowSplit) tc.allowSplitArmed = true;
    InlineFrame& fr = frames[fp++];
    fr.f = cf;
    fr.retPc = pc;
    fr.locals = locals;
    fr.scope = 0;
    if (ce->needsScope) {
      // Manual CanSplitScope entry (lowering.h); kCRet performs the exit.
      if (ce->canSplit) {
        SBD_CHECK_MSG(tc.canSplitDepth > 0 || tc.allowSplitArmed,
                      "IL canSplit function invoked without allowSplit");
        tc.allowSplitArmed = false;
        tc.canSplitDepth++;
        fr.scope = 1;
      } else {
        fr.savedDepth = tc.canSplitDepth;
        tc.canSplitDepth = 0;
        fr.scope = 2;
      }
    }
    int64_t* nl = arenaTop;
    arenaTop += ce->numLocals;
    const int16_t* as = cs.args.data();
    const int np = ce->numParams;
    for (int k = 0; k < np; k++) nl[k] = locals[as[k]];
    for (int k = np; k < ce->numLocals; k++) nl[k] = 0;
    cf = ce;
    locals = nl;
    base = cf->code.data();
    JUMP(0);
  }
  HANDLER(kCSplit) {
    split(tc);
    NEXT();
  }
  HANDLER(kCPrint) {
    tio::TxConsole::println(std::to_string(locals[pc->a]));
    NEXT();
  }
  HANDLER(kCBr) { JUMP(pc->aux); }
  HANDLER(kCCbr) {
    if (locals[pc->a] != 0) JUMP(pc->aux);
    NEXT();
  }
  HANDLER(kCCmpBr) {
    const int64_t v =
        eval_bin(static_cast<BinOp>(pc->sub), locals[pc->b], locals[pc->c]);
    locals[pc->a] = v;  // the fused kBin's store is preserved
    if (v != 0) JUMP(pc->aux);
    NEXT();
  }
  HANDLER(kCRet) {
    const int64_t rv = pc->a >= 0 ? locals[pc->a] : 0;
    if (fp == 0) {
      result = rv;
      goto done;
    }
    const InlineFrame& fr = frames[--fp];
    if (fr.scope == 1)
      tc.canSplitDepth--;
    else if (fr.scope == 2)
      tc.canSplitDepth = fr.savedDepth;
    // The interpreter clears the arming unconditionally after each call
    // returns, whether or not the callee consumed it.
    tc.allowSplitArmed = false;
    arenaTop = locals;  // pop the callee's arena slice
    cf = fr.f;
    locals = fr.locals;
    base = cf->code.data();
    pc = fr.retPc;
    if (pc->a >= 0) locals[pc->a] = rv;
    NEXT();
  }

#undef HANDLER
#undef DISPATCH
#undef NEXT
#undef JUMP

done:
  return result;  // CanSplitScope unwinds the canSplit dynamic scope
}

const void* const* labels_table() {
  static const void* const* t = [] {
    const void* const* out = nullptr;
    exec_c(core::tls_context(), nullptr, nullptr, 0, &out);
    return out;
  }();
  return t;
}

// ---------------------------------------------------------------------------
// Lowering
// ---------------------------------------------------------------------------

void lower_fn(const Function& f, const std::map<std::string, CompiledFunction*>& fns,
              CompiledFunction& cf) {
  SBD_CHECK_MSG(!f.blocks.empty(), "IL compile: function has no blocks");
  SBD_CHECK_MSG(f.numLocals <= kMaxLocals, "IL function has too many locals");
  SBD_CHECK_MSG(f.numParams >= 0 && f.numParams <= f.numLocals,
                "IL compile: bad param count");

  auto chk_local = [&](int l) {
    SBD_CHECK_MSG(l >= 0 && l < f.numLocals, "IL compile: local out of range");
    return static_cast<int16_t>(l);
  };
  auto chk_block = [&](int b) {
    SBD_CHECK_MSG(b >= 0 && b < static_cast<int>(f.blocks.size()),
                  "IL compile: branch target out of range");
    return b;
  };

  std::vector<int32_t> blockStart(f.blocks.size(), -1);
  std::vector<std::pair<size_t, int>> patches;  // code index -> block id

  auto emit = [&](COp op) -> CInstr& {
    cf.code.emplace_back();
    cf.code.back().op = op;
    return cf.code.back();
  };
  auto emit_branch = [&](COp op, int block) -> CInstr& {
    CInstr& ci = emit(op);
    patches.emplace_back(cf.code.size() - 1, chk_block(block));
    return ci;
  };

  for (size_t b = 0; b < f.blocks.size(); b++) {
    const Block& blk = f.blocks[b];
    blockStart[b] = static_cast<int32_t>(cf.code.size());
    bool returned = false;
    for (const Instr& ins : blk.instrs) {
      switch (ins.op) {
        case Op::kConst: {
          CInstr& ci = emit(COp::kCConst);
          ci.a = chk_local(ins.a);
          ci.imm = ins.imm;
          break;
        }
        case Op::kMove: {
          CInstr& ci = emit(COp::kCMove);
          ci.a = chk_local(ins.a);
          ci.b = chk_local(ins.b);
          break;
        }
        case Op::kBin: {
          CInstr& ci = emit(COp::kCBin);
          ci.a = chk_local(ins.a);
          ci.b = chk_local(ins.b);
          ci.c = chk_local(ins.c);
          ci.sub = static_cast<uint8_t>(ins.bin);
          break;
        }
        case Op::kRet: {
          CInstr& ci = emit(COp::kCRet);
          ci.a = ins.a >= 0 ? chk_local(ins.a) : -1;
          returned = true;
          break;
        }
        case Op::kNew: {
          SBD_CHECK_MSG(ins.cls != nullptr, "IL compile: kNew without a class");
          CInstr& ci = emit(COp::kCNew);
          ci.a = chk_local(ins.a);
          ci.cls = ins.cls;
          break;
        }
        case Op::kNewArr: {
          CInstr& ci = emit(COp::kCNewArr);
          ci.a = chk_local(ins.a);
          ci.b = chk_local(ins.b);
          ci.sub = static_cast<uint8_t>(ins.kind);
          break;
        }
        case Op::kLock: {
          const bool isElem = ins.c >= 0;
          const bool write = ins.mode == LockMode::kWrite;
          CInstr& ci = emit(isElem ? (write ? COp::kCLockWriteE : COp::kCLockReadE)
                                   : (write ? COp::kCLockWriteF : COp::kCLockReadF));
          ci.a = chk_local(ins.a);
          if (isElem)
            ci.c = chk_local(ins.c);
          else
            ci.b = static_cast<int16_t>(ins.b);  // field index, not a local
          break;
        }
        case Op::kGetF:
        case Op::kGetFNl: {
          CInstr& ci = emit(ins.op == Op::kGetF ? COp::kCGetF : COp::kCGetFNl);
          ci.a = chk_local(ins.a);
          ci.b = chk_local(ins.b);
          ci.c = static_cast<int16_t>(ins.c);  // field index
          break;
        }
        case Op::kSetF:
        case Op::kSetFNl: {
          CInstr& ci = emit(ins.op == Op::kSetF ? COp::kCSetF : COp::kCSetFNl);
          ci.a = chk_local(ins.a);
          ci.b = static_cast<int16_t>(ins.b);  // field index
          ci.c = chk_local(ins.c);
          break;
        }
        case Op::kGetE:
        case Op::kGetENl: {
          CInstr& ci = emit(ins.op == Op::kGetE ? COp::kCGetE : COp::kCGetENl);
          ci.a = chk_local(ins.a);
          ci.b = chk_local(ins.b);
          ci.c = chk_local(ins.c);
          break;
        }
        case Op::kSetE:
        case Op::kSetENl: {
          CInstr& ci = emit(ins.op == Op::kSetE ? COp::kCSetE : COp::kCSetENl);
          ci.a = chk_local(ins.a);
          ci.b = chk_local(ins.b);
          ci.c = chk_local(ins.c);
          break;
        }
        case Op::kLen: {
          CInstr& ci = emit(COp::kCLen);
          ci.a = chk_local(ins.a);
          ci.b = chk_local(ins.b);
          break;
        }
        case Op::kCall: {
          auto it = fns.find(ins.calleeName);
          SBD_CHECK_MSG(it != fns.end(), "IL compile: call to unknown function");
          SBD_CHECK_MSG(static_cast<int>(ins.args.size()) == it->second->numParams,
                        "IL compile: call arity mismatch");
          CallSite cs;
          cs.callee = it->second;
          cs.allowSplit = ins.allowSplit;
          cs.args.reserve(ins.args.size());
          for (int arg : ins.args) cs.args.push_back(chk_local(arg));
          CInstr& ci = emit(COp::kCCall);
          ci.a = ins.a >= 0 ? chk_local(ins.a) : -1;
          ci.aux = static_cast<int32_t>(cf.calls.size());
          cf.calls.push_back(std::move(cs));
          break;
        }
        case Op::kSplit:
          emit(COp::kCSplit);
          break;
        case Op::kPrint: {
          CInstr& ci = emit(COp::kCPrint);
          ci.a = chk_local(ins.a);
          break;
        }
      }
      if (returned) break;  // the rest of the block is unreachable
    }
    if (returned) continue;
    // Terminator. Fallthrough to the next block in layout order needs
    // no instruction; everything else becomes an explicit branch.
    const int fallthrough = static_cast<int>(b) + 1;
    if (blk.condLocal >= 0) {
      // Fuse a block-terminating kBin that defines the branch condition
      // with the conditional branch itself (one dispatch instead of
      // two). The fused op still stores the comparison result, so any
      // later read of the condition local sees the same value.
      if (!cf.code.empty() &&
          static_cast<int32_t>(cf.code.size()) > blockStart[b] &&
          cf.code.back().op == COp::kCBin && cf.code.back().a == blk.condLocal) {
        const CInstr bin = cf.code.back();
        cf.code.pop_back();
        CInstr& ci = emit_branch(COp::kCCmpBr, blk.next);
        ci.a = bin.a;
        ci.b = bin.b;
        ci.c = bin.c;
        ci.sub = bin.sub;
      } else {
        CInstr& ci = emit_branch(COp::kCCbr, blk.next);
        ci.a = chk_local(blk.condLocal);
      }
      if (blk.nextAlt != fallthrough) emit_branch(COp::kCBr, blk.nextAlt);
      else chk_block(blk.nextAlt);
    } else if (blk.next >= 0) {
      if (blk.next != fallthrough) emit_branch(COp::kCBr, blk.next);
      else chk_block(blk.next);
    } else {
      emit(COp::kCRet);  // fell off the end: implicit void return (a = -1)
    }
  }

  for (const auto& [idx, blkId] : patches)
    cf.code[idx].aux = blockStart[static_cast<size_t>(blkId)];
}

}  // namespace

// needsScope: a function must maintain the canSplit dynamic scope iff
// it is canSplit itself (entry check + depth), contains a kSplit, or
// can transitively reach either through a call. Everything else only
// saves/zeroes/restores a depth no one reads — elided. Conservative
// over unknown callees (lower_fn rejects those anyway).
static std::map<std::string, bool> compute_needs_scope(const Module& m) {
  std::map<std::string, bool> needs;
  for (const auto& [name, f] : m.functions) {
    bool n = f->canSplit;
    for (const Block& b : f->blocks)
      for (const Instr& i : b.instrs)
        if (i.op == Op::kSplit) n = true;
    needs[name] = n;
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (const auto& [name, f] : m.functions) {
      if (needs[name]) continue;
      for (const Block& b : f->blocks)
        for (const Instr& i : b.instrs)
          if (i.op == Op::kCall) {
            auto it = needs.find(i.calleeName);
            if (it == needs.end() || it->second) {
              needs[name] = true;
              changed = true;
            }
          }
    }
  }
  return needs;
}

CompiledModule compile(const Module& m) {
  CompiledModule cm;
  std::map<std::string, CompiledFunction*> fns;
  const auto needsScope = compute_needs_scope(m);
  for (const auto& [name, f] : m.functions) {
    auto cf = std::make_unique<CompiledFunction>();
    cf->name = name;
    cf->numParams = f->numParams;
    cf->numLocals = f->numLocals;
    cf->canSplit = f->canSplit;
    cf->needsScope = needsScope.at(name);
    fns[name] = cf.get();
    cm.functions[name] = std::move(cf);
  }
  for (const auto& [name, f] : m.functions) lower_fn(*f, fns, *fns[name]);

  // Bind handler addresses for direct threading.
  const void* const* labels = labels_table();
  for (auto& [name, cf] : cm.functions)
    for (CInstr& ci : cf->code) ci.handler = labels[static_cast<size_t>(ci.op)];
  return cm;
}

int64_t execute(const CompiledModule& cm, const std::string& fnName,
                const std::vector<int64_t>& args) {
  const CompiledFunction* f = cm.get(fnName);
  SBD_CHECK_MSG(f != nullptr, "IL entry function not found");
  SBD_CHECK_MSG(static_cast<int>(args.size()) == f->numParams, "IL arity mismatch");
  auto& tc = core::tls_context();
  SBD_CHECK_MSG(tc.txn.active(), "IL execution requires an active atomic section");
  int64_t a[kMaxLocals] = {};
  for (size_t i = 0; i < args.size(); i++) a[i] = args[i];
  if (f->canSplit) tc.allowSplitArmed = true;  // entry points are canSplit-callable
  return exec_c(tc, f, a, 0, nullptr);
}

}  // namespace sbd::il
