// The threaded-code backend: lowers verified IL to arrays of
// pre-decoded handler ops executed by computed-goto dispatch.
//
// Why not a tree walker? Table 7's argument is about *lock operations*,
// and the interpreter's per-instruction costs — opcode switch, ~100-byte
// Instr decode, a std::map<std::string> lookup per kCall, a TLS lookup
// per frame — dwarf the Figure 5 fast path being measured. Compilation
// strips all four:
//
//   * each Instr is pre-decoded into a compact CInstr carrying its
//     handler address (direct threading),
//   * blocks are flattened into one code array with explicit branch
//     instructions, fallthroughs elided,
//   * kCall sites pre-resolve the callee to a CompiledFunction pointer,
//   * the cached-context runtime API (tx_read(tc, ...) and friends,
//     field_access.h) is bound directly into handlers, so a compiled
//     section pays one tls_context() at entry, not one per operation.
//
// The backend is intentionally NOT an optimizer: it executes exactly
// the instruction sequence the IL contains, calling exactly the same
// runtime entry points as the interpreter, in the same order. That is
// what makes the two backends bit-identical in results and in
// StatsCounters lock-op deltas (il_backend_diff_test), which in turn is
// what lets benchmarks attribute interp-vs-compiled deltas to dispatch
// cost and O1-vs-interproc deltas to eliminated lock ops, nothing else.
//
// compile() validates the structural invariants it depends on (operand
// locals in range, branch targets in range, callees resolvable, frame
// limits) and SBD_CHECK-fails on violation; run il::verify first for
// diagnosable errors.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "il/ir.h"

namespace sbd::il {

// Flattened opcodes. Lock and access forms are split per mode/shape so
// handlers are branch-free where the IL instruction wasn't.
enum class COp : uint8_t {
  kCConst,
  kCMove,
  kCBin,
  kCNew,
  kCNewArr,
  kCLockReadF,
  kCLockWriteF,
  kCLockReadE,
  kCLockWriteE,
  kCGetF,
  kCSetF,
  kCGetFNl,
  kCSetFNl,
  kCGetE,
  kCSetE,
  kCGetENl,
  kCSetENl,
  kCLen,
  kCCall,
  kCSplit,
  kCPrint,
  kCBr,     // unconditional jump to code index `aux`
  kCCbr,    // if locals[a] != 0 jump to `aux`, else fall through
  kCCmpBr,  // locals[a] = locals[b] <sub> locals[c]; if != 0 jump to `aux`
            // (a block-terminating kBin fused with its kCCbr — the
            //  store to locals[a] is kept, so semantics are unchanged)
  kCRet,    // return locals[a] (a < 0: return 0)
  kCCount,
};

// One pre-decoded op. 48 bytes vs sizeof(Instr) ≈ 100 with two
// out-of-line members; four CInstrs per cache line, no indirection on
// the hot fields.
struct CInstr {
  const void* handler = nullptr;  // direct-threaded dispatch target
  COp op = COp::kCRet;            // label harvesting index
  uint8_t sub = 0;                // BinOp (kCBin) or ElemKind (kCNewArr)
  int16_t a = -1, b = -1, c = -1;
  int32_t aux = -1;  // branch target (code index) or call-site index
  int64_t imm = 0;   // kCConst payload
  runtime::ClassInfo* cls = nullptr;
};

// A call site with the callee resolved at compile time — the interp's
// per-call name lookup is the single largest dispatch cost it pays.
struct CallSite {
  const struct CompiledFunction* callee = nullptr;
  std::vector<int16_t> args;
  bool allowSplit = false;
};

struct CompiledFunction {
  std::string name;
  int numParams = 0;
  int numLocals = 0;
  bool canSplit = false;
  // Whether the canSplit dynamic scope must actually be maintained:
  // true for canSplit functions and for any function whose dynamic
  // extent can reach a kSplit or a canSplit entry check (computed
  // transitively over the call graph). For the rest the depth
  // save/zero/restore is unobservable and elided — the interpreter
  // keeps it unconditionally, which is fine: the bookkeeping has no
  // effect visible to results, lock ops, or traces.
  bool needsScope = true;
  std::vector<CInstr> code;
  std::vector<CallSite> calls;
};

struct CompiledModule {
  std::map<std::string, std::unique_ptr<CompiledFunction>> functions;

  const CompiledFunction* get(const std::string& name) const {
    auto it = functions.find(name);
    return it == functions.end() ? nullptr : it->second.get();
  }
};

// Lowers every function of `m`. The module must be execution-ready
// (locks inserted / optimized as desired): compilation is a snapshot,
// later mutations of `m` do not affect the compiled code.
CompiledModule compile(const Module& m);

// Executes `fnName`, mirroring il::execute() exactly: requires an
// active atomic section, arms allowSplit for a canSplit entry.
int64_t execute(const CompiledModule& cm, const std::string& fnName,
                const std::vector<int64_t>& args = {});

}  // namespace sbd::il
