// The SBD transaction: one per active atomic section per thread.
//
// Properties fixed by the paper's memory-access semantics (§3.2):
//   - pessimistic concurrency control, eager conflict detection
//   - eager version management: writes go in place, old values to an undo log
//   - visible readers: a reader's bit is set in the lock word
//   - field / array-element conflict granularity
//   - deterministic deadlock resolution (blocking Dreadlocks variant,
//     abort the youngest member of the cycle)
//   - fair FIFO wait queues, upgrading readers jump to the front
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <vector>

#include "core/checkpoint.h"
#include "core/fwd.h"
#include "core/ids.h"
#include "core/lockword.h"
#include "core/logarena.h"
#include "core/queue.h"
#include "core/resource.h"
#include "core/stats.h"

namespace sbd::core {

// One acquired field/element lock (the visible R-W set, Table 8).
struct LockRecord {
  runtime::ManagedObject* obj;  // keeps the instance alive for the GC
  LockWord* word;
  bool write;
  bool setUpgrader;  // we set U during an upgrade and must clear it
  // The word is a versioned stamp word (LockMap::kVersioned): held
  // exclusively via version_locked_word(), released by storing a fresh
  // commit stamp instead of clearing member bits.
  bool versioned = false;
};

// One eager-versioning undo entry: old value of a 64-bit slot.
struct UndoEntry {
  runtime::ManagedObject* obj;  // object the slot belongs to (GC root for old ref values)
  uint64_t* slot;
  uint64_t oldValue;
};

// One invisible read of a versioned word: the stamp observed when the
// value was read. Re-validated at split/commit — the section may only
// commit if every observed stamp is still current (or the word is now
// write-locked by this very transaction).
struct VersionedRead {
  runtime::ManagedObject* obj;  // keeps the instance alive for the GC
  LockWord* word;
  LockWord observed;  // full word value at read time (a stamp, LSB 0)
};

// The global version/commit clock backing LockMap::kVersioned stamps
// and obs commit sequence numbers (they are the same counter, so a
// stamp IS the commit seq of the write that produced it). version_clock
// reads the current value; advance_version_clock returns the new,
// strictly positive value (first advance returns 1).
uint64_t version_clock();
uint64_t advance_version_clock();

class Transaction {
 public:
  Transaction() = default;
  Transaction(const Transaction&) = delete;
  Transaction& operator=(const Transaction&) = delete;

  bool active() const { return id() >= 0; }
  int id() const { return id_.load(std::memory_order_relaxed); }
  LockWord mask() const { return mask_; }
  uint64_t start_seq() const { return startSeq_.load(std::memory_order_relaxed); }

  void log_undo(runtime::ManagedObject* obj, uint64_t* slot, uint64_t oldValue) {
    undoLog_.push_back(UndoEntry{obj, slot, oldValue});
  }
  void record_lock(runtime::ManagedObject* obj, LockWord* word, bool write) {
    lockRecords_.push_back(LockRecord{obj, word, write, false, false});
  }
  void record_versioned_lock(runtime::ManagedObject* obj, LockWord* word) {
    lockRecords_.push_back(LockRecord{obj, word, true, false, true});
  }
  void record_versioned_read(runtime::ManagedObject* obj, LockWord* word, LockWord observed) {
    readSet_.push_back(VersionedRead{obj, word, observed});
  }
  // New instances created in this section: on commit their lock pointer
  // flips null -> UNALLOC; on abort they are garbage (init log, §3.3).
  void log_new(runtime::ManagedObject* obj) { initLog_.push_back(obj); }

  // Registers a transactional resource for this section (idempotent).
  void add_resource(TxResource* r);

  // Defers an action (thread start, notify) to successful commit (§3.5).
  void defer(std::function<void()> action) { deferred_.push_back(std::move(action)); }

  // Abort signalling: set by the deadlock resolver on a *waiting*
  // victim; the victim notices in its park loop. Relaxed is enough: the
  // flag is advisory (the victim re-checks on every grant probe / park
  // tick) and carries no data dependency.
  bool abort_requested() const { return abortRequested_.load(std::memory_order_relaxed); }
  void request_abort() { abortRequested_.store(true, std::memory_order_relaxed); }
  void clear_abort_request() { abortRequested_.store(false, std::memory_order_relaxed); }

  // Inevitable sections (core/inevitable.h) must never be aborted: the
  // deadlock resolver skips them when picking victims.
  bool inevitable() const { return inevitable_.load(std::memory_order_acquire); }
  void set_inevitable(bool v) { inevitable_.store(v, std::memory_order_release); }

  // Published while the transaction is parked on a lock word, so the
  // deadlock resolver can pick only waiting victims and wake them
  // (ParkingLot::unpark_txn uses the word as the bucket key). The
  // pointer is a key, not a dereference target, for remote readers.
  bool is_waiting() const { return waiting_.load(std::memory_order_acquire); }
  const LockWord* waiting_on() const { return waitingOn_.load(std::memory_order_acquire); }
  void set_waiting(const LockWord* w) {
    waitingOn_.store(w, std::memory_order_release);
    waiting_.store(w != nullptr, std::memory_order_release);
  }

  size_t rw_set_bytes() const {
    return lockRecords_.size() * sizeof(LockRecord) + undoLog_.size() * sizeof(UndoEntry) +
           readSet_.size() * sizeof(VersionedRead);
  }
  size_t init_log_bytes() const { return initLog_.size() * sizeof(void*); }
  size_t buffer_bytes() const;

  size_t num_locks() const { return lockRecords_.size(); }
  size_t undo_entries() const { return undoLog_.size(); }
  const SegmentedLog<LockRecord>& lock_records() const { return lockRecords_; }
  const SegmentedLog<UndoEntry>& undo_log() const { return undoLog_; }
  const SegmentedLog<VersionedRead>& read_set() const { return readSet_; }
  const SegmentedLog<runtime::ManagedObject*>& init_log() const { return initLog_; }
  const std::vector<TxResource*>& resources() const { return resources_; }

  // Internal to the STM engine (section control and lock engine).
  // User code must treat everything below as private.
  // Atomic (relaxed) because the watchdog and request_abort read them
  // from other threads; only the owner writes them.
  std::atomic<int> id_{-1};
  LockWord mask_ = 0;
  std::atomic<uint64_t> startSeq_{0};
  std::atomic<bool> abortRequested_{false};
  std::atomic<bool> inevitable_{false};
  std::atomic<bool> waiting_{false};
  std::atomic<const LockWord*> waitingOn_{nullptr};

  // Segmented arenas, not vectors: entries never move (the upgrade path
  // and the GC hold entry pointers across pushes) and clear() keeps the
  // chunks, so steady-state sections allocate nothing.
  SegmentedLog<LockRecord> lockRecords_;
  SegmentedLog<UndoEntry> undoLog_;
  SegmentedLog<runtime::ManagedObject*> initLog_;
  std::vector<TxResource*> resources_;
  std::vector<std::function<void()>> deferred_;

  // Versioned (invisible-reader) state. readVersion_ is the snapshot
  // the section reads at: the clock value when the section began. Every
  // versioned read with stamp <= readVersion_ is consistent with that
  // snapshot; a higher stamp aborts the read before the value can be
  // used (sandboxing). commitVersion_ is the stamp this section's
  // versioned writes publish, drawn once per section.
  SegmentedLog<VersionedRead> readSet_;
  uint64_t readVersion_ = 0;
  uint64_t commitVersion_ = 0;
  bool hasVersionedWrite_ = false;
};

// Thread-local allocation buffer handed out by the managed heap.
struct Tlab {
  std::byte* cur = nullptr;
  std::byte* end = nullptr;
};

// Safepoint states for the stop-the-world GC.
enum class ThreadState : int {
  kRunning = 0,
  kSafe = 1,    // blocked in a runtime-controlled wait; stack is stable
  kParked = 2,  // parked at a safepoint poll
};

// Everything the runtime keeps per OS thread participating in SBD.
struct ThreadContext {
  ThreadContext();
  ~ThreadContext();

  uint64_t uid = 0;  // stable identity; the watchdog keys its stall records by it

  Transaction txn;
  CheckpointEngine engine;
  Checkpoint sectionStart;

  StatsCounters stats;
  Tlab tlab;

  // canSplit enforcement (dynamic analog of the paper's modifiers).
  int noSplitDepth = 0;    // §3.7 composability: splits ignored while > 0
  int canSplitDepth = 0;   // >0 while inside a canSplit-capable scope
  bool allowSplitArmed = false;  // next canSplit call is allowed (allowSplit)
  // Values at the last checkpoint: these live off-stack, so an abort
  // must restore them explicitly alongside the stack bytes.
  int ckNoSplitDepth = 0;
  int ckCanSplitDepth = 0;
  bool ckAllowSplitArmed = false;

  // Safepoint machinery.
  std::atomic<int> state{static_cast<int>(ThreadState::kRunning)};
  // Registers at park/safe-enter, for the GC scan: raw callee-saved
  // words (FastContext) or, in sanitized builds, a full ucontext_t.
#if SBD_FASTCTX
  FastContext spillCtx{};
#else
  ucontext_t spillCtx{};
#endif
  void* spillSp = nullptr; // SP at park/safe-enter (low end of scannable stack)
  void* stackAnchor = nullptr;
  uint32_t pollCountdown = 0;

  // Bumped whenever a section ends (commit, split, abort): an array
  // read view (runtime/field_access.h) is valid only within the epoch
  // that created it.
  uint64_t sectionEpoch = 0;

  // The instance this thread's parked lock wait pins (GC root; the
  // word pointer itself lives in txn.waiting_on()).
  runtime::ManagedObject* waitingObj = nullptr;

  bool inSbd = false;  // between enter_thread and leave_thread
  uint64_t retrySleepNanos = 0;

  // now_nanos() when this thread started blocking for a transaction id,
  // 0 otherwise (watchdog visibility into §3.3 pool starvation).
  std::atomic<uint64_t> idWaitSinceNanos{0};
  // now_nanos() when this thread entered a lock wait queue, 0 otherwise
  // (watchdog visibility into blocked transactions).
  std::atomic<uint64_t> lockWaitSinceNanos{0};

  // Thread-local memory with undo (§3.5), one cell per TxLocal object
  // (threads/tx_local.h). A fixed array: undo-log slot pointers stay
  // stable, and another thread's aggregate loads a cell while the owner
  // stores to it. Scanned conservatively by the GC.
  static constexpr uint32_t kTxLocalCells = 128;
  std::atomic<uint64_t> txLocalCells[kTxLocalCells] = {};
};

// Returns the calling thread's context, creating it on first use.
ThreadContext& tls_context();
// Returns nullptr if the thread never touched SBD.
ThreadContext* tls_context_if_present();

// Process-wide transaction bookkeeping.
class TxnManager {
 public:
  static TxnManager& instance();

  TxnIdPool& id_pool() { return idPool_; }

  uint64_t next_seq() { return seq_.fetch_add(1, std::memory_order_relaxed); }

  void publish(int id, Transaction* txn) {
    byId_[id].store(txn, std::memory_order_release);
  }
  void unpublish(int id) { byId_[id].store(nullptr, std::memory_order_release); }
  Transaction* lookup(int id) { return byId_[id].load(std::memory_order_acquire); }

  std::atomic<uint64_t>& digest_slot(int id) { return digests_[id]; }

  // Asks the transaction currently holding `victimId` to abort, if it is
  // still the one with `expectedSeq` (guards against id reuse).
  bool request_abort(int victimId, uint64_t expectedSeq);

  // Thread registry (stats aggregation, safepoints, GC root scan).
  void register_thread(ThreadContext* tc);
  void unregister_thread(ThreadContext* tc);
  template <typename Fn>
  void for_each_thread(Fn&& fn) {
    std::lock_guard<std::mutex> lk(registryMu_);
    for (ThreadContext* tc : threads_) fn(tc);
  }

  StatsCounters snapshot_stats();

 private:
  TxnManager() = default;

  TxnIdPool idPool_;
  std::atomic<uint64_t> seq_{1};
  std::atomic<Transaction*> byId_[kMaxTxns] = {};
  std::atomic<uint64_t> digests_[kMaxTxns] = {};

  std::mutex registryMu_;
  std::vector<ThreadContext*> threads_;
  StatsCounters retired_;
  std::atomic<uint64_t> uidGen_{1};
};

// ---------------------------------------------------------------------------
// Section control (begin / split / end) and the abort path.
// ---------------------------------------------------------------------------

// Begins the initial atomic section of the calling thread. The caller
// must already have called tc.engine.set_anchor_at() higher up the
// same stack. Acquires a transaction id (may block).
void begin_initial_section(ThreadContext& tc);

// Ends the active section: commits resources, flips the init log,
// releases locks, runs deferred actions.
void commit_section(ThreadContext& tc);

// Ends the active section and starts the next one (the split operation,
// §2.1). Reuses the transaction id. Takes a fresh checkpoint so an
// abort of the *next* section restarts here.
void split_section(ThreadContext& tc);

// Halves of the id-releasing split (join/wait/blocking-read paths,
// §3.5): commit and give the transaction id back, run the blocking
// operation, then re-acquire an id and take the next checkpoint.
void commit_and_release_id(ThreadContext& tc);
void reacquire_id_and_checkpoint(ThreadContext& tc);

// As split_section, but releases the transaction id between sections
// (used by join and condition waits, §3.5) and runs `blocked` without
// holding an id; then re-acquires an id and checkpoints.
//
// RESTORE-SAFETY: the checkpoint is taken INSIDE this call, in the
// caller's frame. If the new section later aborts, the retry resumes
// here and re-unwinds the caller's scopes — any non-trivially-
// destructible local (std::function, shared_ptr, std::string) between
// this call and the abort would be destroyed twice. The template +
// static_assert keeps at least the callback itself safe; callers must
// hold only trivially-destructible locals across this call.
template <typename Fn>
void split_section_releasing_id(ThreadContext& tc, Fn&& blocked) {
  static_assert(
      std::is_trivially_destructible_v<std::remove_reference_t<Fn>>,
      "blocked callback must be trivially destructible: an abort of the next "
      "section re-unwinds this frame (capture by reference, not by value)");
  commit_and_release_id(tc);
  blocked();
  reacquire_id_and_checkpoint(tc);
}

// Ends the final section of the thread (thread end).
void end_final_section(ThreadContext& tc);

// Aborts the active section and restarts it from its checkpoint.
// Never returns to the caller.
[[noreturn]] void abort_and_restart(ThreadContext& tc);

// ---------------------------------------------------------------------------
// The lock engine: the Figure 5 slow path behind the field-access fast path.
// ---------------------------------------------------------------------------

class LockEngine {
 public:
  // Ensures the current transaction holds a read lock on `word`.
  // Pre: the fast path already established that our bit is not set.
  static void acquire_read(ThreadContext& tc, runtime::ManagedObject* obj, LockWord* word);

  // Ensures a write lock, upgrading a held read lock if needed.
  static void acquire_write(ThreadContext& tc, runtime::ManagedObject* obj, LockWord* word);

  // Releases every lock in the transaction's record list (commit/abort)
  // and wakes each distinct wait queue once, after all words cleared.
  // `committed` distinguishes commit-time from abort-time release in
  // the full trace (the oracle derives happens-before edges only from
  // committed releases).
  static void release_all(ThreadContext& tc, bool committed);

  // --- Versioned (invisible-reader) paths, LockMap::kVersioned ----------
  // Invisible read of the 64-bit value behind `slot`, covered by the
  // versioned stamp `word`: load stamp, load value, fence, re-check the
  // stamp, append to the read set. Aborts the section (never returns)
  // on a stale stamp or a foreign write lock that outlasts the bounded
  // spin — versioned words never block, so they add no deadlock edges.
  static uint64_t versioned_read(ThreadContext& tc, runtime::ManagedObject* obj,
                                 LockWord* word, const std::atomic<uint64_t>* slot);

  // Exclusive write lock on a versioned word. Returns true on first
  // acquisition in this section (caller must log undo), false when the
  // word was already ours. Aborts on conflict unless inevitable.
  static bool versioned_acquire_write(ThreadContext& tc, runtime::ManagedObject* obj,
                                      LockWord* word);

  // Re-validates the whole read set; aborts the section on any changed
  // stamp. Called at the top of commit/split, before external effects.
  static void versioned_validate(ThreadContext& tc);

  // Called by become_inevitable() before the section turns unabortable:
  // validates the read set and promotes every entry to an exclusive
  // write lock, so no later committer can invalidate it (inevitable
  // sections must never abort). May abort — the section is still
  // revocable at this point.
  static void versioned_promote_for_inevitable(ThreadContext& tc);
};

// ---------------------------------------------------------------------------
// Safepoints (stop-the-world support for the conservative GC).
// ---------------------------------------------------------------------------

class Safepoint {
 public:
  // Cheap poll: parks the thread if a stop-the-world is requested.
  static void poll(ThreadContext& tc) {
    if (stopRequested_.load(std::memory_order_relaxed)) park(tc);
  }

  // RAII safe region around any blocking OS wait. While inside, the GC
  // may scan the thread's stack above the entry point and the registers
  // spilled at entry; the enclosed code must not hold the only reference
  // to a managed object in locals (runtime-internal waits satisfy this
  // by keeping side records), and must neither poll nor open another
  // SafeScope: an exit that waits out a stop still relies on the entry
  // spill. Entry costs a register capture and a seq_cst store; wrap
  // only waits that can actually block.
  class SafeScope {
   public:
    explicit SafeScope(ThreadContext& tc);
    ~SafeScope();

   private:
    ThreadContext& tc_;
  };

  // Stops all registered threads except the caller. Only one stopper at
  // a time; nested stops are programmer error.
  static void stop_world(ThreadContext& requester);
  static void resume_world(ThreadContext& requester);

  static bool stop_requested() {
    return stopRequested_.load(std::memory_order_relaxed);
  }

  // Makes a pending stop_world rescan the registry. Called by a thread
  // that stopped counting as running while a stop was pending: it went
  // safe or parked, or it unregistered.
  static void notify_stopper();

 private:
  static void park(ThreadContext& tc);
  static void wait_out_stop(ThreadContext& tc, ThreadState stopped);
  static std::atomic<bool> stopRequested_;
};

}  // namespace sbd::core
