// Stack checkpointing: the C++ substitute for the managed-language
// property the paper relies on — that a transaction abort can rebuild a
// thread's frames and resume from the start of the atomic section.
//
// A checkpoint is taken at every section boundary (thread start and
// every split). It stores the machine context (a FastContext, or a
// ucontext_t from getcontext in sanitized builds) plus a raw
// copy of the stack segment between the current stack pointer and a
// per-thread anchor recorded at SBD-thread entry. An abort restores the
// bytes and the context from a small trampoline stack (the restoring
// code must not run on the stack it is overwriting) and execution
// resumes as if the checkpoint-taking call had just returned again.
//
// Constraints this imposes on SBD-managed code are documented in
// DESIGN.md: locals that live across a potential abort must be trivially
// restorable (managed refs, arithmetic types); heap state is rolled back
// separately by the undo log.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/fastctx.h"

namespace sbd::core {

enum class CheckpointResult {
  kTaken,    // first return: checkpoint captured, continue the section
  kRestored  // returned again after an abort: re-execute the section
};

class Checkpoint {
 public:
  Checkpoint() = default;
  // The ucontext_t embeds a pointer to its own FP-state storage; the
  // object must stay put once captured.
  Checkpoint(const Checkpoint&) = delete;
  Checkpoint& operator=(const Checkpoint&) = delete;

  bool valid() const { return sp_ != nullptr; }
  size_t saved_bytes() const { return stackCopy_.size(); }

  // Drops the capture. Called when the episode ends: a checkpoint that
  // can never be restored again must not stay a GC root, or its stack
  // snapshot pins every object the final section could see.
  void invalidate() {
    sp_ = nullptr;
    stackCopy_.clear();
    stackCopy_.shrink_to_fit();
  }

  // Conservative-GC access: the saved stack bytes and register file may
  // hold the only references to managed objects. The register area is
  // either a FastContext (raw, unmangled callee-saved registers) or a
  // full ucontext_t on the fallback path — both scan as raw words.
  const std::vector<std::byte>& stack_copy() const { return stackCopy_; }
#if SBD_FASTCTX
  const void* reg_area() const { return &fctx_; }
  size_t reg_area_bytes() const { return sizeof(fctx_); }
#else
  const void* reg_area() const { return &ctx_; }
  size_t reg_area_bytes() const { return sizeof(ctx_); }
#endif

 private:
  friend class CheckpointEngine;
#if SBD_FASTCTX
  FastContext fctx_{};
#else
  ucontext_t ctx_{};
#endif
  std::vector<std::byte> stackCopy_;
  void* sp_ = nullptr;  // low address of the saved segment
};

class CheckpointEngine {
 public:
  CheckpointEngine();
  ~CheckpointEngine();
  CheckpointEngine(const CheckpointEngine&) = delete;
  CheckpointEngine& operator=(const CheckpointEngine&) = delete;

  // Sets the upper bound of the checkpointed stack region. The address
  // must live in stack memory owned by a frame that (a) encloses every
  // frame that will take or restore checkpoints and (b) stays alive for
  // the whole SBD episode — in practice: inside a padding buffer local
  // to an anchor-owning wrapper function (see run_sbd). Restores write
  // bytes up to (exclusive) this address, so memory above it is never
  // touched.
  void set_anchor_at(void* anchor);
  bool has_anchor() const { return anchor_ != nullptr; }
  void clear_anchor() { anchor_ = nullptr; }

  // Captures the current continuation into `cp`. Returns kTaken on the
  // initial call and kRestored when an abort later jumps back here.
  // Must not be inlined into a frame that is destroyed before restore
  // cannot happen anymore — in SBD it is only called from split()/begin.
  CheckpointResult take(Checkpoint& cp);

  // Rolls the thread back to `cp`: restores the stack segment and the
  // machine context. Never returns. Heap/lock rollback must already be
  // done by the caller.
  [[noreturn]] void restore(Checkpoint& cp);

 private:
  static void trampoline_entry();

  void* anchor_ = nullptr;           // high end of the checkpointed region
  std::vector<std::byte> trampolineStack_;
  ucontext_t trampolineCtx_{};
  Checkpoint* restoring_ = nullptr;  // set before jumping to the trampoline
  volatile bool resumedFromRestore_ = false;
};

}  // namespace sbd::core
