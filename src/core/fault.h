// sbd::fault — the deterministic fault-plan registry.
//
// A fault plan names every place the runtime can be made to misbehave
// on purpose — CAS failures in the lock fast path, delays around wait
// queues, forced GCs at allocation safepoints, transient I/O errors and
// short writes, socket resets, DB commit faults, and the original
// abort-at-split injector — and gives each site an independent,
// seeded decision stream plus fired/evaluated counters. One plan is
// active per process; tests and the chaos driver install plans through
// PlanScope, which snapshots and RESTORES the previous plan (including
// its RNG streams and counters), so nested scopes are invisible to the
// enclosing one.
//
// Determinism: each site draws from its own Rng seeded from
// mix64(plan.seed ^ site), so the decision sequence at a site depends
// only on the plan and the number of decision points reached at that
// site — not on what other sites did.
#pragma once

#include <cstdint>

namespace sbd::fault {

enum class Site : int {
  kSplitAbort = 0,   // abort instead of committing at a split (core/transaction.cpp)
  kLockCas,          // fail one lock-word CAS in the fast path (core/transaction.cpp)
  kQueueEnqueue,     // delay before publishing a waiter node (ParkingLot::publish)
  kQueueWakeup,      // delay before a release-side grant pass / id wake (ParkingLot::unpark_*)
  kGcSafepoint,      // force a stop-the-world GC at an allocation safepoint (runtime/heap.cpp)
  kFileError,        // transient (EINTR-style) I/O error, retried in tio/file.cpp
  kFileShortWrite,   // short write at file commit, continued in tio/file.cpp
  kSocketReset,      // connection reset by peer on the loopback network (net/loopback.cpp)
  kDbCommit,         // transient commit-fence fault in the embedded DB (db/db.cpp)
  kDbLockTimeout,    // spurious lock-wait timeout (DbDeadlock) in the embedded DB (db/db.cpp)
  kSafepointPark,    // delay a mutator reaching its safepoint park (core/safepoint.cpp)
  kServeAcceptFail,  // accept() returns a dead connection to the server (src/serve/serve.cpp)
  kServeWriteShort,  // response write cut short mid-flight, connection dropped (src/serve/serve.cpp)
};
inline constexpr int kNumSites = 13;

const char* site_name(Site s);

struct FaultPlan {
  uint64_t seed = 0xfa11;
  double rate[kNumSites] = {};   // per-site fire probability in [0,1]; 0 disables
  uint64_t delayNanos = 50'000;  // sleep injected by the delay sites

  bool enabled() const {
    for (double r : rate)
      if (r > 0) return true;
    return false;
  }
  FaultPlan& with(Site s, double r) {
    rate[static_cast<int>(s)] = r;
    return *this;
  }
};

// Builds a plan with a single enabled site (the legacy injector shape).
inline FaultPlan single_site(Site s, double rate, uint64_t seed = 0xfa11) {
  FaultPlan p;
  p.seed = seed;
  return p.with(s, rate);
}

// Installs `plan`, reseeds every site's decision stream, and zeroes all
// counters. Thread-safe; a plan with all rates zero disables the fast
// path entirely.
void set_plan(const FaultPlan& plan);
FaultPlan plan();
void clear_plan();

// One decision point at `site`: true if the fault should fire. Advances
// the site's stream (and counts) only while the site is enabled;
// disabled sites cost one relaxed atomic load.
bool should_fire(Site site);

// Decision + delay in one call for the delay sites: returns the plan's
// delayNanos if the site fires, else 0.
uint64_t fire_delay_nanos(Site site);

uint64_t fired(Site site);      // faults injected at `site` since set_plan
uint64_t evaluated(Site site);  // decision points reached at `site` since set_plan

// RAII plan installer. Unlike a naive set/clear pair, the destructor
// restores the complete previous registry state — plan, per-site RNG
// streams, and counters — so an inner scope cannot clobber an outer
// one (the abort-injection scope bug this subsystem replaces).
class PlanScope {
 public:
  explicit PlanScope(const FaultPlan& p);
  ~PlanScope();
  PlanScope(const PlanScope&) = delete;
  PlanScope& operator=(const PlanScope&) = delete;

 private:
  struct Saved;
  Saved* saved_;
};

}  // namespace sbd::fault
