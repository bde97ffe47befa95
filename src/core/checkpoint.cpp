#include "core/checkpoint.h"

#include <cstring>

#include "common/check.h"

namespace sbd::core {

namespace {
// The trampoline has no way to receive arguments through makecontext
// portably (int-sized args only), so the engine parks itself here.
thread_local CheckpointEngine* tActiveEngine = nullptr;
thread_local Checkpoint* tActiveCheckpoint = nullptr;

// Copies raw stack bytes for take() and restore(). Under ASan the
// stack carries redzones between locals, which an intercepted memcpy
// reports as overflows: there the copy is an uninstrumented byte loop,
// through volatile so the compiler cannot turn it back into a memcpy.
[[gnu::no_sanitize_address]] void copy_stack_bytes(void* dst, const void* src, size_t n) {
#if defined(__SANITIZE_ADDRESS__)
  auto* d = static_cast<volatile unsigned char*>(dst);
  auto* s = static_cast<const volatile unsigned char*>(src);
  for (size_t i = 0; i < n; i++) d[i] = s[i];
#else
  std::memcpy(dst, src, n);
#endif
}

#if !SBD_FASTCTX
inline void* current_sp_from(const ucontext_t& ctx) {
#if defined(__x86_64__)
  return reinterpret_cast<void*>(ctx.uc_mcontext.gregs[REG_RSP]);
#elif defined(__aarch64__)
  return reinterpret_cast<void*>(ctx.uc_mcontext.sp);
#else
#error "unsupported architecture for SBD checkpointing"
#endif
}
#endif
}  // namespace

CheckpointEngine::CheckpointEngine() : trampolineStack_(64 * 1024) {}

CheckpointEngine::~CheckpointEngine() = default;

void CheckpointEngine::set_anchor_at(void* anchor) {
  anchor_ = reinterpret_cast<void*>(reinterpret_cast<uintptr_t>(anchor) & ~uintptr_t{15});
}

CheckpointResult CheckpointEngine::take(Checkpoint& cp) {
  SBD_CHECK_MSG(anchor_ != nullptr, "set_anchor_at() not called on this thread");
#if SBD_FASTCTX
  // Control reaches this point twice: sbd_ctx_save returns 0 on the
  // initial capture and 1 when the restore trampoline jumps back after
  // copying the captured stack bytes back in place.
  if (sbd_ctx_save(&cp.fctx_) != 0) return CheckpointResult::kRestored;
  void* sp = fastctx_sp(cp.fctx_);
#else
  resumedFromRestore_ = false;
  getcontext(&cp.ctx_);
  // Control reaches this point twice: right after getcontext (initial
  // capture) and again after restore() jumps back. The flag lives in
  // the engine (heap), not on the restored stack, so it distinguishes
  // the two arrivals.
  if (resumedFromRestore_) {
    resumedFromRestore_ = false;
    return CheckpointResult::kRestored;
  }
  void* sp = current_sp_from(cp.ctx_);
#endif
  SBD_CHECK_MSG(sp < anchor_, "stack pointer above anchor — anchor taken too low");
  const size_t len = static_cast<size_t>(static_cast<std::byte*>(anchor_) -
                                         static_cast<std::byte*>(sp));
  cp.sp_ = sp;
  cp.stackCopy_.resize(len);
  copy_stack_bytes(cp.stackCopy_.data(), sp, len);
  return CheckpointResult::kTaken;
}

void CheckpointEngine::restore(Checkpoint& cp) {
  SBD_CHECK_MSG(cp.valid(), "restoring an empty checkpoint");
  resumedFromRestore_ = true;
  restoring_ = &cp;
  tActiveEngine = this;
  tActiveCheckpoint = &cp;
  // The copy-back must not run on the stack it overwrites: hop onto the
  // trampoline stack first.
  getcontext(&trampolineCtx_);
  trampolineCtx_.uc_stack.ss_sp = trampolineStack_.data();
  trampolineCtx_.uc_stack.ss_size = trampolineStack_.size();
  trampolineCtx_.uc_link = nullptr;
  makecontext(&trampolineCtx_, reinterpret_cast<void (*)()>(&trampoline_entry), 0);
  setcontext(&trampolineCtx_);
  SBD_CHECK_MSG(false, "setcontext returned");
  __builtin_unreachable();
}

void CheckpointEngine::trampoline_entry() {
  CheckpointEngine* eng = tActiveEngine;
  Checkpoint* cp = tActiveCheckpoint;
  copy_stack_bytes(cp->sp_, cp->stackCopy_.data(), cp->stackCopy_.size());
  (void)eng;
#if SBD_FASTCTX
  sbd_ctx_jump(&cp->fctx_);
#else
  setcontext(&cp->ctx_);
#endif
}

}  // namespace sbd::core
