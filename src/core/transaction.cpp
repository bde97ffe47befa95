#include "core/transaction.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "common/check.h"
#include "common/timing.h"
#include "core/fault.h"
#include "core/obs.h"
#include "runtime/object.h"

namespace sbd::runtime {
// Defined in runtime/object.cpp: flips a freshly committed instance's
// lock pointer from nullptr (new in this transaction) to UNALLOC (lock
// structures not yet allocated) — the init-log commit action of §3.3.
void publish_new_object(ManagedObject* obj);
}  // namespace sbd::runtime

namespace sbd::core {

namespace {
inline std::atomic<LockWord>* as_atomic(LockWord* w) {
  static_assert(sizeof(std::atomic<LockWord>) == sizeof(LockWord));
  return reinterpret_cast<std::atomic<LockWord>*>(w);
}
}  // namespace

// ---------------------------------------------------------------------------
// The global version/commit clock (LockMap::kVersioned + obs commit seqs)
// ---------------------------------------------------------------------------

namespace {
std::atomic<uint64_t> gVersionClock{0};
}  // namespace

uint64_t version_clock() { return gVersionClock.load(std::memory_order_acquire); }

uint64_t advance_version_clock() {
  return gVersionClock.fetch_add(1, std::memory_order_acq_rel) + 1;
}

// ---------------------------------------------------------------------------
// Transaction
// ---------------------------------------------------------------------------

void Transaction::add_resource(TxResource* r) {
  for (TxResource* e : resources_)
    if (e == r) return;
  resources_.push_back(r);
}

size_t Transaction::buffer_bytes() const {
  size_t sum = 0;
  for (const TxResource* r : resources_) sum += r->buffered_bytes();
  return sum;
}

// ---------------------------------------------------------------------------
// ThreadContext / tls
// ---------------------------------------------------------------------------

ThreadContext::ThreadContext() { TxnManager::instance().register_thread(this); }

ThreadContext::~ThreadContext() {
  TxnManager::instance().unregister_thread(this);
  // A stopper whose last scan saw this thread running waits for it.
  if (Safepoint::stop_requested()) Safepoint::notify_stopper();
}

namespace {
struct TlsHolder {
  ThreadContext* tc = nullptr;
  ~TlsHolder() {
    delete tc;
    tc = nullptr;
  }
};
thread_local TlsHolder tTls;
}  // namespace

ThreadContext& tls_context() {
  if (!tTls.tc) tTls.tc = new ThreadContext();
  return *tTls.tc;
}

ThreadContext* tls_context_if_present() { return tTls.tc; }

// ---------------------------------------------------------------------------
// TxnManager
// ---------------------------------------------------------------------------

TxnManager& TxnManager::instance() {
  static TxnManager mgr;
  return mgr;
}

bool TxnManager::request_abort(int victimId, uint64_t expectedSeq) {
  Transaction* t = lookup(victimId);
  if (!t || t->start_seq() != expectedSeq) return false;
  if (!t->is_waiting()) return false;  // only waiting victims can be aborted remotely
  t->request_abort();
  // Kick the victim's parked node so it notices the flag now instead of
  // at its next timed-park tick. Callers hold no bucket lock here (the
  // deadlock resolver probes and resolves in separate critical
  // sections), so taking the victim's bucket lock cannot self-deadlock.
  // The word pointer is a pure hash key — unpark_txn never dereferences
  // it — so a victim that raced out of the wait costs nothing. A lost
  // wake costs at most one timeout tick: victims always park timed and
  // re-check abort_requested() on every probe.
  if (const LockWord* w = t->waiting_on()) ParkingLot::instance().unpark_txn(w, victimId);
  return true;
}

void TxnManager::register_thread(ThreadContext* tc) {
  std::lock_guard<std::mutex> lk(registryMu_);
  tc->uid = uidGen_.fetch_add(1, std::memory_order_relaxed);
  threads_.push_back(tc);
}

void TxnManager::unregister_thread(ThreadContext* tc) {
  std::lock_guard<std::mutex> lk(registryMu_);
  retired_.add(tc->stats);
  for (auto it = threads_.begin(); it != threads_.end(); ++it) {
    if (*it == tc) {
      threads_.erase(it);
      break;
    }
  }
}

StatsCounters TxnManager::snapshot_stats() {
  std::lock_guard<std::mutex> lk(registryMu_);
  StatsCounters sum = retired_;
  for (ThreadContext* tc : threads_) sum.add(tc->stats);
  return sum;
}

// ---------------------------------------------------------------------------
// Section control
// ---------------------------------------------------------------------------

namespace {

void sample_footprint(ThreadContext& tc) {
  tc.stats.rwSetBytesSum += tc.txn.rw_set_bytes();
  tc.stats.bufferBytesSum += tc.txn.buffer_bytes();
  tc.stats.initLogBytesSum += tc.txn.init_log_bytes();
  tc.stats.txnFootprints++;
}

void clear_section_state(ThreadContext& tc) {
  tc.txn.lockRecords_.clear();
  tc.txn.undoLog_.clear();
  tc.txn.initLog_.clear();
  tc.txn.resources_.clear();
  tc.txn.deferred_.clear();
  tc.txn.readSet_.clear();
  tc.txn.readVersion_ = version_clock();  // the new section's read snapshot
  tc.txn.commitVersion_ = 0;
  tc.txn.hasVersionedWrite_ = false;
  tc.txn.clear_abort_request();
  tc.txn.set_inevitable(false);
}

// How long one id-pool wait slice lasts before the wait is reported as
// a stall (timeout-and-diagnose, §3.3 pressure) and re-entered.
constexpr uint64_t kIdAcquireSliceNanos = 250'000'000;

void acquire_txn_id(ThreadContext& tc) {
  auto& mgr = TxnManager::instance();
  int id = mgr.id_pool().try_acquire();
  if (id < 0) {
    tc.idWaitSinceNanos.store(now_nanos(), std::memory_order_release);
    Safepoint::SafeScope safe(tc);
    bool reported = false;
    for (;;) {
      id = mgr.id_pool().acquire_for(kIdAcquireSliceNanos);
      if (id >= 0) break;
      // Timed out: diagnose, then keep waiting. The pool guarantees
      // eventual progress (every id holder commits or aborts), so the
      // loop is the fallback path, not a spin.
      obs::record(obs::EventKind::kIdPoolStall, -1, -1, nullptr, nullptr,
                  obs::kNoIndex, false);
      if (!reported) {
        reported = true;
        std::fprintf(stderr, "[sbd] txn-id acquire stalled; %s\n",
                     mgr.id_pool().diagnose().c_str());
      }
    }
    tc.idWaitSinceNanos.store(0, std::memory_order_release);
  }
  tc.txn.id_.store(id, std::memory_order_relaxed);
  tc.txn.mask_ = txn_mask(id);
  mgr.publish(id, &tc.txn);
}

void release_txn_id(ThreadContext& tc) {
  auto& mgr = TxnManager::instance();
  mgr.digest_slot(tc.txn.id()).store(0, std::memory_order_release);
  mgr.unpublish(tc.txn.id());
  mgr.id_pool().release(tc.txn.id());
  tc.txn.id_.store(-1, std::memory_order_relaxed);
  tc.txn.mask_ = 0;
}

// Takes the section checkpoint; on an abort-restore arrival it resets
// the per-section bookkeeping so the retry starts clean.
void checkpoint_section(ThreadContext& tc) {
  tc.ckCanSplitDepth = tc.canSplitDepth;
  tc.ckNoSplitDepth = tc.noSplitDepth;
  tc.ckAllowSplitArmed = tc.allowSplitArmed;
  if (tc.engine.take(tc.sectionStart) == CheckpointResult::kRestored) {
    // Re-arrived after abort_and_restart: logs were already cleared and
    // locks released by the abort path; restore the off-stack scope
    // depths to their checkpoint-time values.
    tc.canSplitDepth = tc.ckCanSplitDepth;
    tc.noSplitDepth = tc.ckNoSplitDepth;
    tc.allowSplitArmed = tc.ckAllowSplitArmed;
    tc.txn.clear_abort_request();
    // The abort path cleared the section state before the backoff sleep;
    // refresh the read snapshot so the retry does not start pre-staled.
    tc.txn.readVersion_ = version_clock();
  }
}

}  // namespace

void begin_initial_section(ThreadContext& tc) {
  SBD_CHECK_MSG(!tc.txn.active(), "nested atomic sections are not allowed");
  SBD_CHECK_MSG(tc.engine.has_anchor(), "SBD thread entry must set the stack anchor");
  acquire_txn_id(tc);
  tc.txn.startSeq_.store(TxnManager::instance().next_seq(), std::memory_order_relaxed);
  clear_section_state(tc);
  tc.inSbd = true;
  checkpoint_section(tc);
}

namespace {

// commit_section with the sampling decision made by the caller, so a
// split draws once for itself and its inner commit.
void commit_section_sampled(ThreadContext& tc, bool sampled) {
  SBD_CHECK(tc.txn.active());
  // -1. Versioned read validation, BEFORE anything externally visible:
  //     a section whose invisible reads were overwritten must abort, so
  //     neither its resource commits nor its footprint sample happen.
  LockEngine::versioned_validate(tc);
  // Sampled commit-duration tracing (1-in-kDurationSamplePeriod): the
  // caller's draw is one relaxed load + a TLS tick on the unsampled
  // path, cheap enough to stay enabled under the perf-smoke run.
  const uint64_t traceStart = sampled ? now_nanos() : 0;
  // 0. Sample the transaction footprint BEFORE resources flush their
  //    buffers (Table 8 accounting measures the section's peak state).
  sample_footprint(tc);
  // 1. Apply deferred external effects while memory locks are held, so a
  //    successor section acquiring our locks observes them (§3.4).
  for (TxResource* r : tc.txn.resources_) r->on_commit();
  // 2. Publish new instances: locks pointer null -> UNALLOC (§3.3).
  tc.txn.initLog_.for_each([](runtime::ManagedObject* o) { runtime::publish_new_object(o); });
  // 2b. Draw the global commit sequence number while every lock is
  //     still held, so the per-lock release->acquire order implies
  //     commit-sequence order — the linearization fact the sbd::oracle
  //     checker verifies offline. The commit seq IS the version stamp
  //     this section's versioned writes publish (one clock), so it is
  //     drawn whenever a versioned write lock is held, full trace or
  //     not.
  const bool fullTrace = obs::full_trace();
  if (fullTrace || tc.txn.hasVersionedWrite_)
    tc.txn.commitVersion_ = advance_version_clock();
  if (fullTrace)
    obs::record(obs::EventKind::kCommitOrder, tc.txn.id(), -1, nullptr, nullptr,
                obs::kNoIndex, false, 0, tc.txn.start_seq(), tc.txn.commitVersion_);
  // 3. Release all field/element locks and wake waiters; array read
  //    views of this section go stale with them.
  tc.sectionEpoch++;
  LockEngine::release_all(tc, /*committed=*/true);
  TxnManager::instance().digest_slot(tc.txn.id()).store(0, std::memory_order_release);
  // 4. Run deferred actions (thread starts, notifies) after locks are
  //    free, so the released condition is observable (§3.5).
  auto deferred = std::move(tc.txn.deferred_);
  tc.txn.deferred_.clear();
  for (auto& action : deferred) action();
  tc.stats.commits++;
  tc.retrySleepNanos = 0;
  if (traceStart != 0)
    obs::record(obs::EventKind::kCommit, tc.txn.id(), -1, nullptr, nullptr,
                obs::kNoIndex, false, now_nanos() - traceStart, tc.txn.start_seq());
}

}  // namespace

void commit_section(ThreadContext& tc) {
  commit_section_sampled(tc, obs::sample_duration());
}

void split_section(ThreadContext& tc) {
  // Failure injection: abort instead of committing.
  if (!tc.txn.inevitable() && fault::should_fire(fault::Site::kSplitAbort))
    abort_and_restart(tc);
  // One draw for the split and its inner commit: drawing twice per
  // split would land every sampled tick on the commit, never the split.
  const bool sampled = obs::sample_duration();
  const uint64_t traceStart = sampled ? now_nanos() : 0;
  commit_section_sampled(tc, sampled);
  Safepoint::poll(tc);
  tc.txn.startSeq_.store(TxnManager::instance().next_seq(), std::memory_order_relaxed);
  clear_section_state(tc);
  // Recorded BEFORE the checkpoint: an abort-restore re-arrival in
  // checkpoint_section must not replay the record.
  if (traceStart != 0)
    obs::record(obs::EventKind::kSplit, tc.txn.id(), -1, nullptr, nullptr,
                obs::kNoIndex, false, now_nanos() - traceStart);
  checkpoint_section(tc);
}

void commit_and_release_id(ThreadContext& tc) {
  commit_section(tc);
  release_txn_id(tc);
  Safepoint::poll(tc);
}

void reacquire_id_and_checkpoint(ThreadContext& tc) {
  acquire_txn_id(tc);
  tc.txn.startSeq_.store(TxnManager::instance().next_seq(), std::memory_order_relaxed);
  clear_section_state(tc);
  checkpoint_section(tc);
}

void end_final_section(ThreadContext& tc) {
  commit_section(tc);
  release_txn_id(tc);
  clear_section_state(tc);
  // The episode is over: this checkpoint can never be restored, so it
  // must stop acting as a GC root (its snapshot pins the episode stack).
  tc.sectionStart.invalidate();
  tc.inSbd = false;
}

void abort_and_restart(ThreadContext& tc) {
  SBD_CHECK(tc.txn.active());
  sample_footprint(tc);  // before buffers drop
  // 1. Discard deferred external effects and rearm replay buffers.
  for (auto it = tc.txn.resources_.rbegin(); it != tc.txn.resources_.rend(); ++it)
    (*it)->on_abort();
  // 2. Eager version management: restore old values, newest first. The
  //    store is atomic(relaxed): under a versioned map an invisible
  //    reader may load the slot concurrently (its seqlock re-check
  //    discards the value, but the load itself must not be a data race).
  tc.txn.undoLog_.for_each_reverse([](UndoEntry& ue) {
    reinterpret_cast<std::atomic<uint64_t>*>(ue.slot)->store(ue.oldValue,
                                                             std::memory_order_relaxed);
  });
  // 3. Release locks (array read views go stale); instances in the init
  //    log become garbage.
  tc.sectionEpoch++;
  LockEngine::release_all(tc, /*committed=*/false);
  TxnManager::instance().digest_slot(tc.txn.id()).store(0, std::memory_order_release);
  clear_section_state(tc);
  tc.stats.aborts++;
  obs::record(obs::EventKind::kAborted, tc.txn.id(), -1, nullptr, nullptr,
              obs::kNoIndex, false, 0, tc.txn.start_seq());
  // 4. Back off a little so the conflict winner can finish.
  if (tc.retrySleepNanos == 0)
    tc.retrySleepNanos = 20'000;
  else if (tc.retrySleepNanos < 1'000'000)
    tc.retrySleepNanos *= 2;
  {
    Safepoint::SafeScope safe(tc);
    std::this_thread::sleep_for(std::chrono::nanoseconds(tc.retrySleepNanos));
  }
  Safepoint::poll(tc);
  // 5. Rebuild the stack and re-execute from the section start.
  tc.engine.restore(tc.sectionStart);
}

// ---------------------------------------------------------------------------
// LockEngine
// ---------------------------------------------------------------------------

namespace {

// Resolves a cycle through this transaction, if its Dreadlocks digest
// (published by the grant probe, ParkingLot::try_grant_self) names it,
// by aborting the youngest waiting member. This runs OUTSIDE any bucket
// lock, so the resolver's wake of the victim (unpark_txn takes the
// victim's bucket lock) cannot deadlock. Returns true if the caller
// itself must abort.
bool resolve_cycle(ThreadContext& tc, uint64_t digest, runtime::ManagedObject* obj,
                   LockWord* word) {
  auto& mgr = TxnManager::instance();
  const int myId = tc.txn.id();
  const LockWord myBit = tc.txn.mask();
  if ((digest & myBit) == 0) return false;  // no cycle through us

  // Cycle: abort the youngest *waiting* member (deterministic policy —
  // the oldest transaction always makes progress, §3.2).
  tc.stats.deadlocksResolved++;
  int victim = -1;
  uint64_t victimSeq = 0;
  if (!tc.txn.inevitable()) {
    victim = myId;
    victimSeq = tc.txn.start_seq();
  }
  uint64_t cand = digest & ~myBit;
  while (cand) {
    const int d = std::countr_zero(cand);
    cand &= cand - 1;
    Transaction* t = mgr.lookup(d);
    if (!t || !t->is_waiting()) continue;
    if (t->inevitable()) continue;  // inevitable sections are never victims
    if (victim < 0 || t->start_seq() > victimSeq) {
      victimSeq = t->start_seq();
      victim = d;
    }
  }
  if (victim < 0) return false;  // all waiters inevitable (transient view)
  // Recorded AFTER victim selection, so the event carries the chosen
  // victim and the contended lock (the obs::Event::other contract) —
  // the §6 workflow needs to know who lost, not just that a cycle
  // happened. obj is stable here: our parked node pins it as a GC root
  // while we are enqueued. The victim's epoch (start_seq) rides in
  // `seq` so the offline oracle can verify the victim actually
  // participated (it must have a prior kBlocked with the same id +
  // epoch).
  obs::record_lock_event(obs::EventKind::kDeadlock, myId, victim, obj, word,
                         false, 0, tc.txn.start_seq(), victimSeq);
  if (victim == myId) return true;
  mgr.request_abort(victim, victimSeq);
  return false;
}

// The contended path: publish a waiter node in the parking lot and wait
// (local spin, then timed futex park) until the lock is handed off or
// self-grantable. `upgrader` implies the caller already holds a read
// lock and set the U bit. Returns with the lock held (recorded by the
// caller for upgrades, here otherwise) or aborts the transaction.
void slow_acquire(ThreadContext& tc, runtime::ManagedObject* obj, LockWord* word,
                  bool wantWrite, bool upgrader) {
  auto& mgr = TxnManager::instance();
  auto* aw = as_atomic(word);
  const int myId = tc.txn.id();
  const LockWord myBit = tc.txn.mask();
  tc.stats.contendedAcquires++;
  obs::record_lock_event(obs::EventKind::kBlocked, myId, -1, obj, word,
                         wantWrite || upgrader, 0, tc.txn.start_seq());
  const uint64_t blockStart = now_nanos();
  tc.lockWaitSinceNanos.store(blockStart, std::memory_order_release);

  // `granted` is false on the paths that leave the wait to abort: those
  // record kAborted downstream, and a kGranted there would claim a lock
  // acquisition that never happened.
  auto finish_blocked_accounting = [&](bool granted) {
    tc.lockWaitSinceNanos.store(0, std::memory_order_release);
    // The granted event carries the wait latency, so the trace answers
    // "how long did this lock make us wait", not only "how often".
    if (granted) {
      obs::record_lock_event(obs::EventKind::kGranted, myId, -1, obj, word,
                             wantWrite || upgrader, now_nanos() - blockStart,
                             tc.txn.start_seq());
      // Full trace: every grant path funnels through here, and each one
      // records AFTER its successful CAS — so the acquire event is
      // ordered after the matching release on the same word.
      if (obs::full_trace())
        obs::record_lock_event(obs::EventKind::kAcquire, myId, upgrader ? 1 : 0,
                               obj, word, wantWrite || upgrader, 0,
                               tc.txn.start_seq());
    }
  };

  // Direct attempts first: the lock may have freed between the fast
  // path and here, and an enqueue round trip for a now-grabbable word
  // would cost two bucket-lock sections for nothing.
  for (;;) {
    LockWord w = aw->load(std::memory_order_acquire);
    if (upgrader) {
      if (!(sole_member(w, myBit) && !has_writer(w))) break;
      LockWord target = without_upgrader(with_writer(w));
      if (aw->compare_exchange_weak(w, target, std::memory_order_acq_rel)) {
        finish_blocked_accounting(/*granted=*/true);
        return;
      }
    } else if (!wantWrite) {
      if (!read_grabbable(w)) break;
      if (aw->compare_exchange_weak(w, with_member(w, myBit), std::memory_order_acq_rel)) {
        tc.txn.record_lock(obj, word, false);
        tc.stats.acqRls++;
        finish_blocked_accounting(/*granted=*/true);
        return;
      }
    } else {
      if (!(is_free(w) && write_grabbable(w, myBit))) break;
      if (aw->compare_exchange_weak(w, with_writer(with_member(w, myBit)),
                                    std::memory_order_acq_rel)) {
        tc.txn.record_lock(obj, word, true);
        tc.stats.acqRls++;
        finish_blocked_accounting(/*granted=*/true);
        return;
      }
    }
    tc.stats.casFailures++;
  }

  // Enqueue: publish the node, then raise the has-waiters bit, then
  // probe. EXACTLY this order — the no-lost-wakeup argument
  // (docs/SEMANTICS.md) needs the node visible before the bit and the
  // probe's word re-read after the bit.
  auto& lot = ParkingLot::instance();
  WaitNode node;
  node.word = word;
  node.boundObj = obj;
  node.txnId = myId;
  node.mask = myBit;
  node.wantWrite = wantWrite || upgrader;
  node.upgrader = upgrader;
  lot.publish(node);
  tc.waitingObj = obj;
  tc.txn.set_waiting(word);
  {
    LockWord w = aw->load(std::memory_order_acquire);
    while (!has_waiters(w)) {
      if (aw->compare_exchange_weak(w, with_waiters(w), std::memory_order_acq_rel))
        break;
    }
  }

  auto leave_waiting = [&] {
    // Clear the published digest: a stale digest would make other
    // transactions that later wait on us see phantom cycles.
    mgr.digest_slot(myId).store(0, std::memory_order_release);
    tc.txn.set_waiting(nullptr);
    tc.waitingObj = nullptr;
  };

  // Leaves the wait to abort. cancel() can lose the race against a
  // concurrent handoff — then the lock is OURS and must be recorded so
  // the abort's release_all frees it (and the trace shows the grant the
  // handoff already performed).
  auto abort_from_wait = [&]() {
    const bool won = lot.cancel(tc, node) == CancelResult::kWasGranted;
    if (won) {
      if (!upgrader) {
        tc.txn.record_lock(obj, word, wantWrite);
        tc.stats.acqRls++;
      } else if (auto* rec = tc.txn.lockRecords_.find_last_if(
                     [&](const LockRecord& r) { return r.word == word; })) {
        rec->write = true;       // the handoff completed the upgrade:
        rec->setUpgrader = false;  // W is ours, U is already cleared
      }
    }
    leave_waiting();
    finish_blocked_accounting(/*granted=*/won);
    abort_and_restart(tc);
  };

  // Timed parks double from 200us to ~3.2ms: each tick re-publishes the
  // Dreadlocks digest (stale digests delay cycle detection) and
  // re-checks the abort flag, but direct handoff means ticks are the
  // backstop, not the grant path.
  uint64_t parkNanos = 200'000;
  for (;;) {
    const GrantProbe probe = lot.try_grant_self(tc, node);
    if (probe.granted) {
      leave_waiting();
      if (!upgrader) {
        tc.txn.record_lock(obj, word, wantWrite);
        tc.stats.acqRls++;
      }
      finish_blocked_accounting(/*granted=*/true);
      return;
    }
    if (tc.txn.abort_requested()) abort_from_wait();
    if (resolve_cycle(tc, probe.digest, obj, word)) abort_from_wait();
    if (tc.txn.abort_requested()) abort_from_wait();
    {
      // The SafeScope covers the park: the collector may scan our stack
      // (the node and boundObj live on it) while we sleep. No bucket
      // lock is held here, so the GC's own bucket sweep
      // (ParkingLot::for_each_bound) cannot deadlock against us.
      Safepoint::SafeScope safe(tc);
      lot.park(node, parkNanos);
    }
    if (parkNanos < 3'200'000) parkNanos *= 2;
  }
}

}  // namespace

void LockEngine::acquire_read(ThreadContext& tc, runtime::ManagedObject* obj,
                              LockWord* word) {
  auto* aw = as_atomic(word);
  // Fault plan: pretend one CAS lost a race (at most once per call, so
  // rate 1.0 still terminates). Exercises the retry edge of the fast path.
  bool injectCasFail = fault::should_fire(fault::Site::kLockCas);
  for (;;) {
    LockWord w = aw->load(std::memory_order_acquire);
    if (is_member(w, tc.txn.mask())) return;  // owned
    if (read_grabbable(w)) {
      if (injectCasFail) {
        injectCasFail = false;
        tc.stats.casFailures++;
        continue;
      }
      if (aw->compare_exchange_weak(w, with_member(w, tc.txn.mask()),
                                    std::memory_order_acq_rel)) {
        tc.txn.record_lock(obj, word, false);
        tc.stats.acqRls++;
        if (obs::full_trace())
          obs::record_lock_event(obs::EventKind::kAcquire, tc.txn.id(), 0, obj,
                                 word, false, 0, tc.txn.start_seq());
        return;
      }
      tc.stats.casFailures++;
      continue;
    }
    slow_acquire(tc, obj, word, /*wantWrite=*/false, /*upgrader=*/false);
    return;
  }
}

void LockEngine::acquire_write(ThreadContext& tc, runtime::ManagedObject* obj,
                               LockWord* word) {
  auto* aw = as_atomic(word);
  const LockWord myBit = tc.txn.mask();
  // See acquire_read: one injected CAS failure per call at most.
  bool injectCasFail = fault::should_fire(fault::Site::kLockCas);
  for (;;) {
    LockWord w = aw->load(std::memory_order_acquire);
    if (is_member(w, myBit)) {
      if (has_writer(w)) return;  // already the writer
      // Upgrade a held read lock.
      for (;;) {
        if (sole_member(w, myBit)) {
          if (aw->compare_exchange_weak(w, with_writer(w), std::memory_order_acq_rel)) {
            // Flip the existing record so release/GC accounting sees a write.
            if (auto* rec = tc.txn.lockRecords_.find_last_if(
                    [&](const LockRecord& r) { return r.word == word; }))
              rec->write = true;
            if (obs::full_trace())
              obs::record_lock_event(obs::EventKind::kAcquire, tc.txn.id(), 1,
                                     obj, word, true, 0, tc.txn.start_seq());
            return;
          }
          tc.stats.casFailures++;
          w = aw->load(std::memory_order_acquire);
          continue;
        }
        if (has_upgrader(w)) {
          // Dueling write-upgrade (§3.2): two readers both want to
          // write. The U holder wins; we abort and retry. An inevitable
          // section cannot lose a duel — it must order its accesses so
          // writes come first (documented constraint).
          SBD_CHECK_MSG(!tc.txn.inevitable(),
                        "inevitable section lost a dueling write-upgrade");
          abort_and_restart(tc);
        }
        if (aw->compare_exchange_weak(w, with_upgrader(w), std::memory_order_acq_rel)) {
          // Arena entries never move, so the record pointer stays valid
          // across the pushes slow_acquire may perform.
          auto* rec = tc.txn.lockRecords_.find_last_if(
              [&](const LockRecord& r) { return r.word == word; });
          if (rec) rec->setUpgrader = true;
          slow_acquire(tc, obj, word, /*wantWrite=*/true, /*upgrader=*/true);
          // Upgrade succeeded: U is cleared, we hold the write lock.
          if (rec) {
            rec->write = true;
            rec->setUpgrader = false;
          }
          return;
        }
        tc.stats.casFailures++;
        w = aw->load(std::memory_order_acquire);
      }
    }
    if (write_grabbable(w, myBit) && is_free(w)) {
      if (injectCasFail) {
        injectCasFail = false;
        tc.stats.casFailures++;
        continue;
      }
      if (aw->compare_exchange_weak(w, with_writer(with_member(w, myBit)),
                                    std::memory_order_acq_rel)) {
        tc.txn.record_lock(obj, word, true);
        tc.stats.acqRls++;
        if (obs::full_trace())
          obs::record_lock_event(obs::EventKind::kAcquire, tc.txn.id(), 0, obj,
                                 word, true, 0, tc.txn.start_seq());
        return;
      }
      tc.stats.casFailures++;
      continue;
    }
    slow_acquire(tc, obj, word, /*wantWrite=*/true, /*upgrader=*/false);
    return;
  }
}

void LockEngine::release_all(ThreadContext& tc, bool committed) {
  const LockWord myBit = tc.txn.mask();
  const bool fullTrace = obs::full_trace();
  // Batched wake: clear every word first, remembering which words had
  // the has-waiters bit set, then run one grant pass per distinct word.
  // A waiter that needs several of our locks is handed its lock once
  // all of them are free instead of probing once per word. The list is
  // a fixed stack array: a transaction rarely holds more than a handful
  // of contended words; on overflow we grant inline (correct, just one
  // extra bucket-lock section mid-release).
  constexpr size_t kMaxWake = 64;
  const LockWord* wakeWords[kMaxWake];
  size_t numWake = 0;
  auto& lot = ParkingLot::instance();
  tc.txn.lockRecords_.for_each_reverse([&](LockRecord& rec) {
    // Full trace: the release is recorded BEFORE the word is cleared,
    // so any conflicting acquire (recorded after its CAS) draws a later
    // ordinal — the happens-before edge the oracle replays.
    if (fullTrace)
      obs::record_lock_event(obs::EventKind::kRelease, tc.txn.id(),
                             committed ? 1 : 0, rec.obj, rec.word, rec.write, 0,
                             tc.txn.start_seq());
    if (rec.versioned) {
      // Versioned word: release = publish a fresh stamp. On commit the
      // stamp is the commit seq; on abort it is a fresh clock draw too —
      // the data was undone, but re-stamping with the OLD version would
      // let a concurrent reader's seqlock re-check pass after it loaded
      // the aborted (since-undone) value. No queues to wake.
      if (tc.txn.commitVersion_ == 0) tc.txn.commitVersion_ = advance_version_clock();
      as_atomic(rec.word)->store(version_stamp(tc.txn.commitVersion_),
                                 std::memory_order_release);
      return;
    }
    auto* aw = as_atomic(rec.word);
    LockWord w = aw->load(std::memory_order_acquire);
    LockWord target;
    do {
      target = without_member(w, myBit);
      if (sole_member(w, myBit)) target = without_writer(target);
      if (rec.setUpgrader) target = without_upgrader(target);
    } while (!aw->compare_exchange_weak(w, target, std::memory_order_acq_rel));
    if (has_waiters(target)) {
      bool seen = false;
      for (size_t i = 0; i < numWake; i++)
        if (wakeWords[i] == rec.word) { seen = true; break; }
      if (seen) return;
      if (numWake < kMaxWake)
        wakeWords[numWake++] = rec.word;
      else
        lot.unpark_word(tc, rec.word);
    }
  });
  for (size_t i = 0; i < numWake; i++) lot.unpark_word(tc, wakeWords[i]);
}

// ---------------------------------------------------------------------------
// Versioned (invisible-reader) paths — LockMap::kVersioned
// ---------------------------------------------------------------------------

namespace {

// A foreign writer holds a versioned word only between its acquire and
// its commit/abort release; spin this long for it to pass, then abort.
// Versioned waiters never enqueue, so these words contribute no
// deadlock edges — bounded spin + abort keeps that property.
constexpr int kVersionedSpinLimit = 64;

[[noreturn]] void version_abort(ThreadContext& tc, runtime::ManagedObject* obj,
                                LockWord* word, int reason) {
  tc.stats.versionAborts++;
  obs::record_lock_event(obs::EventKind::kVersionAbort, tc.txn.id(), reason, obj,
                         word, false, 0, tc.txn.start_seq());
  abort_and_restart(tc);
}

}  // namespace

uint64_t LockEngine::versioned_read(ThreadContext& tc, runtime::ManagedObject* obj,
                                    LockWord* word, const std::atomic<uint64_t>* slot) {
  auto* aw = as_atomic(word);
  if (tc.txn.inevitable()) {
    // Inevitable sections must never abort, so they cannot carry a
    // revocable read set: read through an exclusive lock instead.
    versioned_acquire_write(tc, obj, word);
    return slot->load(std::memory_order_relaxed);
  }
  const uint64_t rv = tc.txn.readVersion_;
  int spins = 0;
  for (;;) {
    const LockWord v1 = aw->load(std::memory_order_acquire);
    if (version_locked(v1)) {
      if (version_owner(v1) == tc.txn.id()) {
        tc.stats.checkOwned++;
        return slot->load(std::memory_order_relaxed);  // reading our own write
      }
      if (++spins <= kVersionedSpinLimit) {
        Safepoint::poll(tc);
        std::this_thread::yield();
        continue;
      }
      version_abort(tc, obj, word, obs::kVersionAbortWriteConflict);
    }
    // Sandboxing: a stamp later than our snapshot aborts the read BEFORE
    // the value can influence control flow — a zombie section never gets
    // to observe state inconsistent with readVersion_.
    if (version_of(v1) > rv) version_abort(tc, obj, word, obs::kVersionAbortStale);
    const uint64_t value = slot->load(std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_acquire);
    // Seqlock re-check: an unchanged word proves no writer overlapped
    // the data load; on change the loaded value is discarded unseen.
    if (aw->load(std::memory_order_relaxed) != v1) {
      spins = 0;
      continue;
    }
    tc.stats.versionedReads++;
    tc.txn.record_versioned_read(obj, word, v1);
    return value;
  }
}

bool LockEngine::versioned_acquire_write(ThreadContext& tc, runtime::ManagedObject* obj,
                                         LockWord* word) {
  auto* aw = as_atomic(word);
  const int myId = tc.txn.id();
  const LockWord lockedWord = version_locked_word(myId);
  // Fault plan parity with acquire_read/acquire_write: at most one
  // injected CAS failure per call.
  bool injectCasFail = fault::should_fire(fault::Site::kLockCas);
  int spins = 0;
  bool contended = false;
  for (;;) {
    LockWord w = aw->load(std::memory_order_acquire);
    if (version_locked(w)) {
      if (version_owner(w) == myId) {
        tc.stats.checkOwned++;
        return false;  // already ours
      }
      if (!contended) {
        contended = true;
        tc.stats.contendedAcquires++;
        obs::record_lock_event(obs::EventKind::kBlocked, myId, -1, obj, word,
                               true, 0, tc.txn.start_seq());
        if (tc.txn.inevitable())
          tc.lockWaitSinceNanos.store(now_nanos(), std::memory_order_release);
      }
      ++spins;
      if (!tc.txn.inevitable()) {
        if (spins > kVersionedSpinLimit)
          version_abort(tc, obj, word, obs::kVersionAbortWriteConflict);
      } else if ((spins & 0x3FF) == 0) {
        // Inevitable sections cannot abort themselves; if the owner is
        // parked in some wait queue, ask IT to abort and release.
        auto& mgr = TxnManager::instance();
        const int owner = version_owner(w);
        if (Transaction* t = mgr.lookup(owner))
          mgr.request_abort(owner, t->start_seq());
      }
      Safepoint::poll(tc);
      std::this_thread::yield();
      continue;
    }
    // A stamp past our snapshot means a commit overtook this section; a
    // lock on top would make validation wrongly accept any read-set
    // entry for the same word (locked-by-self passes unconditionally).
    if (version_of(w) > tc.txn.readVersion_ && !tc.txn.inevitable())
      version_abort(tc, obj, word, obs::kVersionAbortStale);
    if (injectCasFail) {
      injectCasFail = false;
      tc.stats.casFailures++;
      continue;
    }
    if (aw->compare_exchange_weak(w, lockedWord, std::memory_order_acq_rel)) {
      if (contended && tc.txn.inevitable())
        tc.lockWaitSinceNanos.store(0, std::memory_order_release);
      tc.txn.record_versioned_lock(obj, word);
      tc.txn.hasVersionedWrite_ = true;
      tc.stats.acqRls++;
      if (obs::full_trace())
        obs::record_lock_event(obs::EventKind::kAcquire, myId, 0, obj, word, true,
                               0, tc.txn.start_seq());
      return true;
    }
    tc.stats.casFailures++;
  }
}

void LockEngine::versioned_validate(ThreadContext& tc) {
  auto& txn = tc.txn;
  const size_t n = txn.readSet_.size();
  if (n == 0) return;
  tc.stats.validations += n;
  bool ok = true;
  runtime::ManagedObject* failObj = nullptr;
  LockWord* failWord = nullptr;
  // Clock unchanged since the snapshot -> no commit can have re-stamped
  // anything; skip the per-entry sweep (the common read-only case).
  if (version_clock() != txn.readVersion_) {
    const int myId = txn.id();
    txn.readSet_.for_each([&](const VersionedRead& vr) {
      if (!ok) return;
      const LockWord w = as_atomic(vr.word)->load(std::memory_order_acquire);
      if (w == vr.observed) return;                            // stamp unchanged
      if (version_locked(w) && version_owner(w) == myId) return;  // we wrote it
      ok = false;
      failObj = vr.obj;
      failWord = vr.word;
    });
  }
  if (!ok) version_abort(tc, failObj, failWord, obs::kVersionAbortValidation);
  // The validation event carries the snapshot (seq = readVersion_): the
  // oracle joins the clocks of every commit with seq <= readVersion_ —
  // the happens-before edges invisible reads otherwise leave untraced.
  if (obs::full_trace())
    obs::record(obs::EventKind::kValidate, txn.id(), static_cast<int>(n), nullptr,
                nullptr, obs::kNoIndex, false, 0, txn.start_seq(), txn.readVersion_);
}

void LockEngine::versioned_promote_for_inevitable(ThreadContext& tc) {
  auto& txn = tc.txn;
  if (txn.readSet_.size() == 0) return;
  // Lock every read-set word: each acquire re-checks the stamp against
  // the snapshot (any post-read committer re-stamped past readVersion_
  // and aborts us here, while the section is still revocable). Once all
  // entries are exclusively ours, no later committer can invalidate the
  // read set, so the section can safely become unabortable.
  txn.readSet_.for_each([&](const VersionedRead& vr) {
    versioned_acquire_write(tc, vr.obj, vr.word);
  });
  versioned_validate(tc);
}

}  // namespace sbd::core
