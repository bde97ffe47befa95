// STM statistics: the per-effect lock-operation counters of Table 7,
// the conflict counters of Table 9 (aborts, contended acquires, CAS
// failures), and the memory accounting of Table 8.
//
// Counters are kept per thread (plain uint64_t increments on the fast
// path) and aggregated on demand by the TxnManager.
#pragma once

#include <atomic>
#include <cstdint>

namespace sbd::core {

// Lock-operation effects exactly as the paper subdivides them (§5.3):
//   Init        — initialize the locks field of a new instance (lazy alloc)
//   CheckNew    — instance is new in this transaction, check only
//   CheckOwned  — lock already held, check only
//   AcqRls      — lock acquire + (deferred) release incl. undo logging
struct StatsCounters {
  uint64_t lockInit = 0;
  uint64_t checkNew = 0;
  uint64_t checkOwned = 0;
  uint64_t acqRls = 0;

  uint64_t commits = 0;
  uint64_t aborts = 0;
  uint64_t contendedAcquires = 0;  // went through a wait queue
  uint64_t casFailures = 0;        // lost a CAS race on a lock word
  uint64_t deadlocksResolved = 0;
  // Always 0: nothing increments it since retry-budget escalation was
  // removed. Kept because sbd_bench reports core.escalations.
  uint64_t escalations = 0;

  // Versioned (invisible-reader) granularity, LockMap::kVersioned:
  uint64_t versionedReads = 0;  // stamp-validated reads (no lock-word store)
  uint64_t validations = 0;     // read-set entries re-validated at split/commit
  uint64_t versionAborts = 0;   // stale read / write conflict / validation fail

  // Transaction-footprint accounting (Table 8): peak bytes per
  // transaction, summed over committed/aborted transactions, plus the
  // count, so the harness can report averages.
  uint64_t rwSetBytesSum = 0;   // lock records + undo entries (old values)
  uint64_t bufferBytesSum = 0;  // transactional I/O buffers
  uint64_t initLogBytesSum = 0; // new-instance log
  uint64_t txnFootprints = 0;   // number of transactions sampled

  void add(const StatsCounters& o) {
    lockInit += o.lockInit;
    checkNew += o.checkNew;
    checkOwned += o.checkOwned;
    acqRls += o.acqRls;
    commits += o.commits;
    aborts += o.aborts;
    contendedAcquires += o.contendedAcquires;
    casFailures += o.casFailures;
    deadlocksResolved += o.deadlocksResolved;
    escalations += o.escalations;
    versionedReads += o.versionedReads;
    validations += o.validations;
    versionAborts += o.versionAborts;
    rwSetBytesSum += o.rwSetBytesSum;
    bufferBytesSum += o.bufferBytesSum;
    initLogBytesSum += o.initLogBytesSum;
    txnFootprints += o.txnFootprints;
  }

  StatsCounters diff(const StatsCounters& earlier) const {
    StatsCounters d = *this;
    d.lockInit -= earlier.lockInit;
    d.checkNew -= earlier.checkNew;
    d.checkOwned -= earlier.checkOwned;
    d.acqRls -= earlier.acqRls;
    d.commits -= earlier.commits;
    d.aborts -= earlier.aborts;
    d.contendedAcquires -= earlier.contendedAcquires;
    d.casFailures -= earlier.casFailures;
    d.deadlocksResolved -= earlier.deadlocksResolved;
    d.escalations -= earlier.escalations;
    d.versionedReads -= earlier.versionedReads;
    d.validations -= earlier.validations;
    d.versionAborts -= earlier.versionAborts;
    d.rwSetBytesSum -= earlier.rwSetBytesSum;
    d.bufferBytesSum -= earlier.bufferBytesSum;
    d.initLogBytesSum -= earlier.initLogBytesSum;
    d.txnFootprints -= earlier.txnFootprints;
    return d;
  }
};

// Field-completeness guard: add(), diff(), and obs::metrics_json()
// enumerate every counter by hand. Adding a field without updating all
// three silently loses data — trip this assert instead.
static_assert(sizeof(StatsCounters) == 17 * sizeof(uint64_t),
              "StatsCounters changed: update add(), diff(), and "
              "obs::metrics_json() to cover the new field(s), then bump "
              "this count");

// Globally shared gauges that are not per-thread.
struct GlobalGauges {
  std::atomic<uint64_t> lockStructBytes{0};  // live lock structures (Table 8 "Locks")
  std::atomic<uint64_t> heapBytes{0};        // live managed heap (Table 8 "Baseline")
  std::atomic<uint64_t> gcRuns{0};
  // Live version-stamp words of versioned-mapped classes. These are not
  // reader bit-sets, so Table 8 reports them in their own column rather
  // than inflating "Locks".
  std::atomic<uint64_t> versionWordBytes{0};
};

GlobalGauges& gauges();

}  // namespace sbd::core
