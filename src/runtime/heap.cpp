#include "runtime/heap.h"

#include <cstdlib>
#include <cstring>

#include "common/check.h"
#include "common/timing.h"
#include "core/fault.h"
#include "core/obs.h"
#include "core/queue.h"
#include "core/stats.h"
#include "core/transaction.h"

namespace sbd::runtime {

namespace {
constexpr size_t align_up(size_t v, size_t a) { return (v + a - 1) & ~(a - 1); }
}  // namespace

// ---------------------------------------------------------------------------
// Chunk bitmap
// ---------------------------------------------------------------------------

void Heap::Chunk::set_start(size_t offset) {
  const size_t g = offset / kGranule;
  startBits[g / 64] |= 1ULL << (g % 64);
}

void Heap::Chunk::clear_start(size_t offset) {
  const size_t g = offset / kGranule;
  startBits[g / 64] &= ~(1ULL << (g % 64));
}

bool Heap::Chunk::is_start(size_t offset) const {
  if (offset % kGranule) return false;
  const size_t g = offset / kGranule;
  return (startBits[g / 64] >> (g % 64)) & 1;
}

size_t Heap::Chunk::find_start_at_or_before(size_t offset) const {
  size_t g = offset / kGranule;
  size_t word = g / 64;
  uint64_t bits = startBits[word] & (~0ULL >> (63 - (g % 64)));
  for (;;) {
    if (bits) {
      const size_t bit = 63 - static_cast<size_t>(__builtin_clzll(bits));
      return (word * 64 + bit) * kGranule;
    }
    if (word == 0) return SIZE_MAX;
    bits = startBits[--word];
  }
}

// ---------------------------------------------------------------------------
// Heap
// ---------------------------------------------------------------------------

Heap& Heap::instance() {
  static Heap* h = new Heap();  // intentionally leaked: outlives all threads
  return *h;
}

Heap::Heap() : smallFree_(kMaxSmallClass / 16 + 1) {}

size_t Heap::object_size(const ClassInfo* cls) {
  return align_up(sizeof(ManagedObject) + cls->slotCount * 8, Chunk::kGranule);
}

size_t Heap::array_size(ElemKind kind, uint64_t length) {
  size_t payload = 8;  // length word
  switch (kind) {
    case ElemKind::kI8:
      payload += align_up(length, 8);
      break;
    default:
      payload += length * 8;
      break;
  }
  return align_up(sizeof(ManagedObject) + payload, Chunk::kGranule);
}

std::byte* Heap::allocate_block(size_t size) {
  // Small sizes: exact-fit free list.
  if (size <= kMaxSmallClass) {
    auto& list = smallFree_[size / 16];
    if (!list.empty()) {
      std::byte* p = list.back();
      list.pop_back();
      Chunk* c = chunk_of(p);
      c->set_start(static_cast<size_t>(p - c->base));
      return p;
    }
  } else if (size < kLargeThreshold) {
    auto it = midFree_.find(size);
    if (it != midFree_.end() && !it->second.empty()) {
      std::byte* p = it->second.back();
      it->second.pop_back();
      Chunk* c = chunk_of(p);
      c->set_start(static_cast<size_t>(p - c->base));
      return p;
    }
  } else {
    // Large object: dedicated chunk rounded to 1 MiB multiples, aligned
    // so the per-MiB chunk map covers its whole span.
    const size_t mapped = align_up(size, Chunk::kSize);
    auto* base = static_cast<std::byte*>(std::aligned_alloc(Chunk::kSize, mapped));
    SBD_CHECK_MSG(base != nullptr, "managed heap: large allocation failed");
    auto* c = new Chunk();
    c->base = base;
    c->large = true;
    c->byteSize = mapped;
    c->bump = size;
    c->set_start(0);
    allChunks_.push_back(c);
    for (size_t off = 0; off < mapped; off += Chunk::kSize)
      chunks_[(reinterpret_cast<uintptr_t>(base) + off) >> Chunk::kSizeLog2] = c;
    return base;
  }
  // Bump allocation.
  if (!bumpChunk_ || bumpChunk_->bump + size > Chunk::kSize) {
    auto* base = static_cast<std::byte*>(std::aligned_alloc(Chunk::kSize, Chunk::kSize));
    SBD_CHECK_MSG(base != nullptr, "managed heap: chunk allocation failed");
    auto* c = new Chunk();
    c->base = base;
    allChunks_.push_back(c);
    chunks_[reinterpret_cast<uintptr_t>(base) >> Chunk::kSizeLog2] = c;
    bumpChunk_ = c;
  }
  std::byte* p = bumpChunk_->base + bumpChunk_->bump;
  bumpChunk_->set_start(bumpChunk_->bump);
  bumpChunk_->bump += size;
  return p;
}

Heap::Chunk* Heap::chunk_of(const void* p) {
  auto it = chunks_.find(reinterpret_cast<uintptr_t>(p) >> Chunk::kSizeLog2);
  return it == chunks_.end() ? nullptr : it->second;
}

ManagedObject* Heap::alloc_raw(ClassInfo* cls, size_t size, bool bornEscaped,
                               uint64_t arrayLength, bool isArray) {
  core::ThreadContext& tc = core::tls_context();
  core::Safepoint::poll(tc);  // allocation is a GC-cooperation point
  ManagedObject* o;
  {
    std::unique_lock<std::mutex> lk(heapMu_);
    allocatedSinceGc_ += size;
    stats_.allocatedBytes += size;
    // Fault plan: force a full stop-the-world collection at this
    // allocation safepoint, regardless of the threshold.
    const bool wantGc = allocatedSinceGc_ >= gcThreshold_ ||
                        fault::should_fire(fault::Site::kGcSafepoint);
    std::byte* p = allocate_block(size);
    std::memset(p, 0, size);
    o = reinterpret_cast<ManagedObject*>(p);
    o->h.cls = cls;
    o->h.sizeBytes = static_cast<uint32_t>(size);
    o->h.flags = 0;
    if (isArray) o->slots()[0] = arrayLength;
    new (&o->locks) std::atomic<core::LockWord*>(bornEscaped ? kUnalloc : nullptr);
    if (wantGc) {
      lk.unlock();
      // Keep the fresh object reachable across the collection: the
      // conservative scan sees `o` in this frame, but be explicit.
      ManagedObject* volatile keep = o;
      collect();
      o = keep;
    }
  }
  core::gauges().heapBytes.fetch_add(size, std::memory_order_relaxed);
  if (!bornEscaped) tc.txn.log_new(o);
  return o;
}

ManagedObject* Heap::alloc_object(ClassInfo* cls) {
  core::ThreadContext& tc = core::tls_context();
  const bool inTxn = tc.txn.active();
  return alloc_raw(cls, object_size(cls), /*bornEscaped=*/!inTxn, 0, false);
}

ManagedObject* Heap::alloc_array(ElemKind kind, uint64_t length) {
  return alloc_array(array_class(kind), length);
}

ManagedObject* Heap::alloc_array(ClassInfo* cls, uint64_t length) {
  core::ThreadContext& tc = core::tls_context();
  const bool inTxn = tc.txn.active();
  return alloc_raw(cls, array_size(cls->elemKind, length), !inTxn, length, true);
}

ManagedObject* Heap::alloc_statics_holder(ClassInfo* cls) {
  // Statics use a synthetic class describing the static slots.
  auto* holderCls = new ClassInfo();
  holderCls->name = cls->name + "::statics";
  holderCls->slotCount = cls->staticSlotCount;
  holderCls->refMask = cls->staticRefMask;
  return alloc_raw(holderCls, object_size(holderCls), /*bornEscaped=*/true, 0, false);
}

void Heap::add_root(ManagedObject** slot) {
  std::lock_guard<std::mutex> lk(heapMu_);
  roots_.push_back(slot);
}

void Heap::remove_root(ManagedObject** slot) {
  std::lock_guard<std::mutex> lk(heapMu_);
  for (auto it = roots_.begin(); it != roots_.end(); ++it) {
    if (*it == slot) {
      roots_.erase(it);
      return;
    }
  }
}

void Heap::set_gc_threshold(uint64_t bytes) {
  std::lock_guard<std::mutex> lk(heapMu_);
  gcThreshold_ = bytes;
}

void Heap::attach_current_thread_here() {
  // Records the upper bound for the conservative stack scan. The GC
  // only READS up to this address, so rounding up into the caller's
  // frame is harmless (unlike the checkpoint anchor, which is a write
  // bound and owns its pad — see run_sections_with_anchor).
  core::ThreadContext& tc = core::tls_context();
  if (!tc.stackAnchor) {
    volatile char probe = 0;
    tc.stackAnchor = reinterpret_cast<void*>(
        (reinterpret_cast<uintptr_t>(&probe) + 1024) & ~uintptr_t{15});
  }
}

HeapStats Heap::stats() {
  std::lock_guard<std::mutex> lk(heapMu_);
  return stats_;
}

ManagedObject* Heap::find_object(const void* p) {
  Chunk* c = chunk_of(p);
  if (!c) return nullptr;
  const auto off = static_cast<size_t>(static_cast<const std::byte*>(p) - c->base);
  if (c->large) {
    // Large chunks hold a single object at offset 0 (the start bitmap
    // only covers the first MiB, so don't consult it for deep offsets).
    if (off >= c->bump || !c->is_start(0)) return nullptr;
    return reinterpret_cast<ManagedObject*>(c->base);
  }
  if (off >= c->bump) return nullptr;
  const size_t start = c->find_start_at_or_before(off);
  if (start == SIZE_MAX) return nullptr;
  auto* o = reinterpret_cast<ManagedObject*>(c->base + start);
  if (off >= start + o->h.sizeBytes) return nullptr;  // points into a freed gap
  return o;
}

// ---------------------------------------------------------------------------
// Collection
// ---------------------------------------------------------------------------

void Heap::collect() {
  core::ThreadContext& tc = core::tls_context();
  const uint64_t t0 = obs::enabled() ? now_nanos() : 0;
  core::Safepoint::stop_world(tc);
  {
    std::lock_guard<std::mutex> lk(heapMu_);
    mark_from_roots();
    sweep();
    allocatedSinceGc_ = 0;
    if (gcThreshold_ < 2 * stats_.liveBytes) gcThreshold_ = 2 * stats_.liveBytes;
    stats_.collections++;
    core::gauges().gcRuns.fetch_add(1, std::memory_order_relaxed);
    core::gauges().heapBytes.store(stats_.liveBytes, std::memory_order_relaxed);
  }
  core::Safepoint::resume_world(tc);
  if (t0 != 0)
    obs::record(obs::EventKind::kGcPause, tc.txn.id(), -1, nullptr, nullptr,
                obs::kNoIndex, false, now_nanos() - t0);
}

void Heap::mark_object(ManagedObject* o) {
  if (!o || o->marked()) return;
  o->set_mark();
  markStack_.push_back(o);
}

void Heap::trace(ManagedObject* o) {
  const ClassInfo* cls = o->h.cls;
  if (cls->isArray) {
    if (cls->elemKind == ElemKind::kRef) {
      const uint64_t len = o->array_length();
      const uint64_t* data = o->array_data();
      for (uint64_t i = 0; i < len; i++)
        mark_object(reinterpret_cast<ManagedObject*>(data[i]));
    }
    return;
  }
  uint64_t mask = cls->refMask;
  const uint64_t* slots = o->slots();
  while (mask) {
    const int i = __builtin_ctzll(mask);
    mask &= mask - 1;
    mark_object(reinterpret_cast<ManagedObject*>(slots[i]));
  }
}

// Conservative scan of raw words. Stacks carry ASan redzones between
// locals, so the reads are left uninstrumented, as the checkpoint's
// stack copy is.
[[gnu::no_sanitize_address]] void Heap::scan_words(const void* begin, const void* end) {
  auto* p = reinterpret_cast<const uintptr_t*>(
      align_up(reinterpret_cast<uintptr_t>(begin), sizeof(uintptr_t)));
  auto* e = reinterpret_cast<const uintptr_t*>(end);
  for (; p < e; p++) {
    ManagedObject* o = find_object(reinterpret_cast<const void*>(*p));
    if (o) mark_object(o);
  }
}

void Heap::mark_from_roots() {
  markStack_.clear();

  // 1. Global roots and class statics.
  for (ManagedObject** slot : roots_) mark_object(*slot);
  for_each_class([&](ClassInfo* ci) {
    if (ci->statics) mark_object(ci->statics);
  });

  // 2. Per-thread roots: stacks, registers, checkpoints, transaction logs.
  auto& mgr = core::TxnManager::instance();
  core::ThreadContext& self = core::tls_context();
  mgr.for_each_thread([&](core::ThreadContext* t) {
    if (t == &self) {
      volatile char probe = 0;
      const void* sp = const_cast<const char*>(&probe);
      if (t->stackAnchor) scan_words(sp, t->stackAnchor);
    } else if (t->stackAnchor && t->spillSp) {
      scan_words(t->spillSp, t->stackAnchor);
      scan_words(&t->spillCtx, reinterpret_cast<const std::byte*>(&t->spillCtx) +
                                   sizeof(t->spillCtx));
    }
    // Section checkpoint: saved stack bytes + register file (raw,
    // unmangled — reg_area() covers the fast-context or ucontext form).
    const core::Checkpoint& cp = t->sectionStart;
    if (cp.valid()) {
      const auto& buf = cp.stack_copy();
      scan_words(buf.data(), buf.data() + buf.size());
      scan_words(cp.reg_area(), reinterpret_cast<const std::byte*>(cp.reg_area()) +
                                    cp.reg_area_bytes());
    }
    // Transaction-held references.
    t->txn.lock_records().for_each(
        [&](const core::LockRecord& lr) { mark_object(lr.obj); });
    // Versioned read sets pin their objects too: commit-time validation
    // dereferences vr.word, which lives in the object's lock array.
    t->txn.read_set().for_each(
        [&](const core::VersionedRead& vr) { mark_object(vr.obj); });
    t->txn.undo_log().for_each([&](const core::UndoEntry& ue) {
      mark_object(ue.obj);
      // Old values of reference slots must stay alive for rollback.
      ManagedObject* old = find_object(reinterpret_cast<void*>(ue.oldValue));
      if (old) mark_object(old);
    });
    t->txn.init_log().for_each([&](ManagedObject* o) { mark_object(o); });
    // Thread-local cells may hold references.
    for (const auto& cell : t->txLocalCells) {
      ManagedObject* o =
          find_object(reinterpret_cast<void*>(cell.load(std::memory_order_relaxed)));
      if (o) mark_object(o);
    }
    std::vector<ManagedObject*> rr;
    for (const core::TxResource* r : t->txn.resources()) r->collect_roots(rr);
    for (ManagedObject* o : rr) mark_object(o);
    if (t->waitingObj) mark_object(t->waitingObj);
  });

  // 3. Parking-lot waiter bindings: every parked node pins the object
  // whose lock word it waits on (nodes live on waiter stacks, but the
  // boundObj reference must keep the object — and its lock word — alive
  // independently of whether the waiter's own stack scan finds it).
  core::ParkingLot::instance().for_each_bound(
      [&](runtime::ManagedObject* o) { mark_object(o); });

  // Drain.
  while (!markStack_.empty()) {
    ManagedObject* o = markStack_.back();
    markStack_.pop_back();
    trace(o);
  }
}

void Heap::sweep() {
  stats_.liveBytes = 0;
  stats_.liveObjects = 0;
  std::vector<Chunk*> keep;
  keep.reserve(allChunks_.size());
  for (Chunk* c : allChunks_) {
    const size_t limit = c->bump;
    bool anyLive = false;
    for (size_t w = 0; w < Chunk::kBitmapWords; w++) {
      uint64_t bits = c->startBits[w];
      while (bits) {
        const int bit = __builtin_ctzll(bits);
        bits &= bits - 1;
        const size_t off = (w * 64 + static_cast<size_t>(bit)) * Chunk::kGranule;
        if (off >= limit) break;
        auto* o = reinterpret_cast<ManagedObject*>(c->base + off);
        if (o->marked()) {
          o->clear_mark();
          anyLive = true;
          stats_.liveBytes += o->h.sizeBytes;
          stats_.liveObjects++;
        } else {
          release_locks(o);
          c->clear_start(off);
          const size_t size = o->h.sizeBytes;
          if (!c->large) {
            if (size <= kMaxSmallClass)
              smallFree_[size / 16].push_back(c->base + off);
            else
              midFree_[size].push_back(c->base + off);
          }
        }
      }
    }
    if (c->large && !anyLive) {
      for (size_t off = 0; off < c->byteSize; off += Chunk::kSize)
        chunks_.erase((reinterpret_cast<uintptr_t>(c->base) + off) >> Chunk::kSizeLog2);
      std::free(c->base);
      delete c;
      continue;
    }
    keep.push_back(c);
  }
  allChunks_.swap(keep);
}

}  // namespace sbd::runtime
