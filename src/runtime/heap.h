// The managed heap: bump/free-list allocation out of 1 MiB chunks plus
// a conservative stop-the-world mark–sweep collector.
//
// Why conservative: the SBD abort path restores raw stack bytes
// (core/checkpoint.h), so precise root bookkeeping tied to C++ object
// lifetimes would desynchronize on abort. A conservative scan of
// [sp, anchor] per thread — plus the saved checkpoint buffers and
// spilled register files — is oblivious to restores, which is exactly
// what we need. This substitutes for the JVM garbage collector the
// paper assumes (§3.1).
//
// Roots:
//   - every attached thread's stack segment and spilled registers
//   - every section checkpoint's saved stack bytes and register file
//   - class statics objects and explicitly registered globals
//   - per-transaction lock records, undo entries (old reference
//     values!), init logs, resource-held objects, wait records
//   - lock wait-queue bindings
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/fwd.h"
#include "runtime/class_info.h"
#include "runtime/object.h"

namespace sbd::runtime {

struct HeapStats {
  uint64_t liveBytes = 0;        // after the last collection
  uint64_t allocatedBytes = 0;   // cumulative
  uint64_t collections = 0;
  uint64_t liveObjects = 0;
};

class Heap {
 public:
  static Heap& instance();

  // Allocates a plain object of `cls`. Inside a transaction the object
  // is born "new" (locks == nullptr, init-logged); outside (bootstrap
  // code) it is born escaped (locks == kUnalloc).
  ManagedObject* alloc_object(ClassInfo* cls);

  // Allocates an array of `length` elements of `kind`, or of the array
  // class `cls` (register_array_class).
  ManagedObject* alloc_array(ElemKind kind, uint64_t length);
  ManagedObject* alloc_array(ClassInfo* cls, uint64_t length);

  // Statics holder for class registration (pre-transactional).
  ManagedObject* alloc_statics_holder(ClassInfo* cls);

  // Registers/unregisters a global root slot.
  void add_root(ManagedObject** slot);
  void remove_root(ManagedObject** slot);

  // Forces a stop-the-world collection from the calling thread.
  void collect();

  // GC trigger threshold: collect when this many bytes were allocated
  // since the last collection (adapted upward to 2x live size).
  void set_gc_threshold(uint64_t bytes);

  // Attaches the calling thread's stack for conservative scanning;
  // must be called near the top of any non-SBD thread (e.g. main) that
  // holds managed references in locals. SBD threads are attached by
  // their entry trampoline.
  void attach_current_thread_here();

  HeapStats stats();

  // True if `p` points to (possibly into) a live managed object;
  // returns the object start, else nullptr. Used by the GC scan and by
  // tests.
  ManagedObject* find_object(const void* p);

  // Total payload+header size a (cls) instance needs.
  static size_t object_size(const ClassInfo* cls);
  static size_t array_size(ElemKind kind, uint64_t length);

 private:
  Heap();

  struct Chunk {
    static constexpr size_t kSizeLog2 = 20;
    static constexpr size_t kSize = 1ULL << kSizeLog2;  // 1 MiB
    static constexpr size_t kGranule = 16;
    static constexpr size_t kBitmapWords = kSize / kGranule / 64;

    std::byte* base = nullptr;
    size_t bump = 0;         // next free offset (bump area)
    bool large = false;      // single-object chunk (possibly spanning > 1 MiB)
    size_t byteSize = kSize; // actual mapped size (large chunks)
    uint64_t startBits[kBitmapWords] = {};

    void set_start(size_t offset);
    void clear_start(size_t offset);
    bool is_start(size_t offset) const;
    // Largest marked start offset <= offset, or SIZE_MAX.
    size_t find_start_at_or_before(size_t offset) const;
  };

  static constexpr size_t kLargeThreshold = 128 * 1024;
  static constexpr size_t kMaxSmallClass = 2048;  // free lists in 16B classes below this

  ManagedObject* alloc_raw(ClassInfo* cls, size_t size, bool bornEscaped,
                           uint64_t arrayLength, bool isArray);
  std::byte* allocate_block(size_t size);       // heapMu_ must be held
  Chunk* chunk_of(const void* p);               // heapMu_ or stopped world

  void mark_from_roots();
  void mark_object(ManagedObject* o);
  void trace(ManagedObject* o);
  void scan_words(const void* begin, const void* end);
  void sweep();

  std::mutex heapMu_;
  std::unordered_map<uintptr_t, Chunk*> chunks_;  // key: base >> 20 (per MiB page)
  std::vector<Chunk*> allChunks_;
  Chunk* bumpChunk_ = nullptr;
  std::vector<std::vector<std::byte*>> smallFree_;  // by size class (16B steps)
  std::unordered_map<size_t, std::vector<std::byte*>> midFree_;

  std::vector<ManagedObject**> roots_;
  std::vector<ManagedObject*> markStack_;

  uint64_t gcThreshold_ = 48ULL << 20;
  uint64_t allocatedSinceGc_ = 0;
  HeapStats stats_;
};

// Convenience: attach the calling thread (main, test driver) for
// conservative scanning. Must be invoked in a frame that encloses all
// uses of managed references on this thread.
#define SBD_ATTACH_THREAD() ::sbd::runtime::Heap::instance().attach_current_thread_here()

}  // namespace sbd::runtime
