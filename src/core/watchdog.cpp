#include "core/watchdog.h"

#include <atomic>
#include <cstdio>
#include <map>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "common/timing.h"
#include "core/obs.h"
#include "core/queue.h"
#include "core/transaction.h"

namespace sbd::core {

namespace {

std::mutex gCtlMu;  // serializes start/stop
std::thread gThread;
Watchdog::Options gOpts;

// Cleared by stop(), which then unparks the sleeping watchdog.
std::atomic<bool> gRun{false};

std::atomic<uint64_t> gStalls{0};
std::atomic<uint64_t> gVictims{0};

// One record per (thread, wait episode): a new wait start timestamp
// means a new episode, reported (and possibly aborted) at most once.
struct StallRec {
  uint64_t waitSince = 0;
  bool reported = false;
  bool abortSent = false;
};

// Everything the act phase needs, copied out of the ThreadContext while
// the registry lock is held. No ThreadContext pointer survives the scan:
// the thread may unregister (and free its context) the moment the lock
// drops. The lock-word pointer is used only as a parking-lot hash key
// unless the waiter's node (which pins boundObj on the waiter's stack)
// is still linked — ParkingLot::with_waiter revalidates under the
// bucket lock before we dereference anything.
struct WaitSnap {
  uint64_t uid;
  uint64_t since;  // episode start (nonzero)
  bool idPool;
  int txnId;
  uint64_t startSeq;
  const LockWord* word;
};

// Examines one stalled wait. Runs WITHOUT the thread-registry lock; the
// cross-thread values in `s` are diagnostic-only racy copies, and the
// abort fallback goes through TxnManager::request_abort, which
// re-validates the victim by (id, seq).
void check_wait(const WaitSnap& s, uint64_t now, std::map<uint64_t, StallRec>& recs) {
  if (now <= s.since) return;
  const uint64_t waited = now - s.since;
  if (waited < gOpts.stallThresholdNanos) return;
  StallRec& rec = recs[s.uid];
  if (rec.waitSince != s.since) rec = StallRec{s.since, false, false};

  if (!rec.reported) {
    rec.reported = true;
    gStalls.fetch_add(1, std::memory_order_relaxed);
    const void* lockAddr = nullptr;
    size_t queueDepth = 0;
    obs::LockSym sym{};
    if (!s.idPool && s.word) {
      // Symbolize under the parking-lot bucket lock: the waiter's node
      // (and the boundObj it pins) is stable only while the bucket
      // mutex holds it linked. If the waiter was granted or cancelled
      // since the scan, with_waiter finds nothing and we report the
      // bare address.
      lockAddr = s.word;
      ParkingLot::instance().with_waiter(
          s.word, s.txnId, [&](const WaitNode& n, size_t depth) {
            queueDepth = depth;
            sym = obs::symbolize(n.boundObj, s.word);
          });
    }
    obs::record(s.idPool ? obs::EventKind::kIdPoolStall
                         : obs::EventKind::kWatchdogStall,
                s.txnId, -1, lockAddr, sym.cls, sym.index, false);
    if (gOpts.logToStderr) {
      if (s.idPool) {
        std::fprintf(stderr, "[sbd-watchdog] thread %llu blocked %.1f ms for a txn id; %s\n",
                     static_cast<unsigned long long>(s.uid), waited / 1e6,
                     TxnManager::instance().id_pool().diagnose().c_str());
      } else {
        std::fprintf(stderr,
                     "[sbd-watchdog] txn %d blocked %.1f ms on lock %s (queue depth %zu)\n",
                     s.txnId, waited / 1e6,
                     obs::lock_name(sym.cls, sym.index,
                                    reinterpret_cast<uint64_t>(lockAddr))
                         .c_str(),
                     queueDepth);
        // Hottest locks so far — points straight at the contended
        // class:field when the stall is contention, not a bug.
        const std::string hot = obs::hot_report(5);
        if (!hot.empty())
          std::fprintf(stderr, "[sbd-watchdog] %s\n", hot.c_str());
      }
    }
  }

  // Abort-victim fallback: only lock waits — an id-pool waiter has no
  // active section to abort, it is *between* sections.
  if (!s.idPool && gOpts.abortVictimAfterNanos != 0 && !rec.abortSent &&
      waited >= gOpts.abortVictimAfterNanos) {
    rec.abortSent = true;
    if (s.txnId >= 0 && TxnManager::instance().request_abort(s.txnId, s.startSeq)) {
      gVictims.fetch_add(1, std::memory_order_relaxed);
      if (gOpts.logToStderr)
        std::fprintf(stderr, "[sbd-watchdog] aborting stalled txn %d (timeout fallback)\n",
                     s.txnId);
    }
  }
}

void run() {
  std::map<uint64_t, StallRec> lockRecs, idRecs;
  std::vector<WaitSnap> snaps;
  for (;;) {
    ParkingLot::instance().park(
        &gRun, [] { return gRun.load(std::memory_order_relaxed); }, 0,
        now_nanos() + gOpts.pollIntervalNanos);
    if (!gRun.load(std::memory_order_relaxed)) return;
    const uint64_t now = now_nanos();
    std::set<uint64_t> live;
    snaps.clear();
    // Scan phase: the registry lock is held, so ONLY lock-free reads are
    // allowed here. In particular no parking-lot bucket mutex may be
    // taken: a worker can wait out a stop-the-world (SafeScope) at any
    // point, the GC's root scan needs the registry lock AND every
    // bucket lock, and blocking on a bucket from inside the registry
    // would close that chain into a three-party deadlock.
    TxnManager::instance().for_each_thread([&](ThreadContext* tc) {
      live.insert(tc->uid);
      const uint64_t ls = tc->lockWaitSinceNanos.load(std::memory_order_acquire);
      const uint64_t is = tc->idWaitSinceNanos.load(std::memory_order_acquire);
      if (ls != 0)
        snaps.push_back({tc->uid, ls, /*idPool=*/false, tc->txn.id(), tc->txn.start_seq(),
                         tc->txn.waiting_on()});
      if (is != 0)
        snaps.push_back({tc->uid, is, /*idPool=*/true, -1, 0, nullptr});
    });
    // Act phase: registry lock released; bucket locks are now safe.
    for (const WaitSnap& s : snaps)
      check_wait(s, now, s.idPool ? idRecs : lockRecs);
    // Prune records of threads that have exited.
    for (auto* recs : {&lockRecs, &idRecs})
      for (auto it = recs->begin(); it != recs->end();)
        it = live.count(it->first) ? std::next(it) : recs->erase(it);
  }
}

}  // namespace

void Watchdog::start(const Options& opts) {
  std::lock_guard<std::mutex> ctl(gCtlMu);
  if (gThread.joinable()) return;
  gOpts = opts;
  gRun.store(true, std::memory_order_relaxed);
  gThread = std::thread(run);
}

void Watchdog::stop() {
  std::lock_guard<std::mutex> ctl(gCtlMu);
  if (!gThread.joinable()) return;
  gRun.store(false, std::memory_order_relaxed);
  ParkingLot::instance().unpark_all(&gRun);
  gThread.join();
}

bool Watchdog::running() {
  std::lock_guard<std::mutex> ctl(gCtlMu);
  return gThread.joinable();
}

uint64_t Watchdog::stalls_detected() {
  return gStalls.load(std::memory_order_relaxed);
}

uint64_t Watchdog::victims_aborted() {
  return gVictims.load(std::memory_order_relaxed);
}

}  // namespace sbd::core
