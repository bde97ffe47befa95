#include "core/fault.h"

#include <atomic>
#include <mutex>

#include "common/check.h"
#include "common/rng.h"

namespace sbd::fault {

namespace {

struct SiteState {
  Rng rng{0};
  uint64_t fired = 0;
  uint64_t evaluated = 0;
};

struct Registry {
  std::mutex mu;
  FaultPlan plan;
  SiteState sites[kNumSites];
};

Registry& registry() {
  static Registry* r = new Registry();  // leaked: outlives all threads
  return *r;
}

// Fast-path gate: bit i set <=> site i enabled. Decision points sit on
// the lock fast path and the allocator, so the disabled case must not
// take a mutex.
std::atomic<uint32_t> gEnabledMask{0};

uint32_t mask_of(const FaultPlan& p) {
  uint32_t m = 0;
  for (int i = 0; i < kNumSites; i++)
    if (p.rate[i] > 0) m |= 1u << i;
  return m;
}

void install_locked(Registry& r, const FaultPlan& p) {
  r.plan = p;
  for (int i = 0; i < kNumSites; i++) {
    r.sites[i].rng.reseed(mix64(p.seed ^ (0x517eULL + static_cast<uint64_t>(i))));
    r.sites[i].fired = 0;
    r.sites[i].evaluated = 0;
  }
  gEnabledMask.store(mask_of(p), std::memory_order_release);
}

}  // namespace

const char* site_name(Site s) {
  switch (s) {
    case Site::kSplitAbort:    return "split-abort";
    case Site::kLockCas:       return "lock-cas";
    case Site::kQueueEnqueue:  return "queue-enqueue-delay";
    case Site::kQueueWakeup:   return "queue-wakeup-delay";
    case Site::kGcSafepoint:   return "gc-safepoint";
    case Site::kFileError:     return "file-io-error";
    case Site::kFileShortWrite:return "file-short-write";
    case Site::kSocketReset:   return "socket-reset";
    case Site::kDbCommit:      return "db-commit-fault";
    case Site::kDbLockTimeout: return "db-lock-timeout";
    case Site::kSafepointPark: return "safepoint-park-delay";
    case Site::kServeAcceptFail: return "serve-accept-fail";
    case Site::kServeWriteShort: return "serve-write-short";
  }
  return "?";
}

void set_plan(const FaultPlan& p) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  install_locked(r, p);
}

FaultPlan plan() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  return r.plan;
}

void clear_plan() { set_plan(FaultPlan{}); }

bool should_fire(Site site) {
  const int i = static_cast<int>(site);
  if ((gEnabledMask.load(std::memory_order_acquire) & (1u << i)) == 0) return false;
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  const double rate = r.plan.rate[i];
  if (rate <= 0) return false;  // raced with a plan change
  SiteState& st = r.sites[i];
  st.evaluated++;
  if (!st.rng.chance(rate)) return false;
  st.fired++;
  return true;
}

uint64_t fire_delay_nanos(Site site) {
  if (!should_fire(site)) return 0;
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  return r.plan.delayNanos;
}

uint64_t fired(Site site) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  return r.sites[static_cast<int>(site)].fired;
}

uint64_t evaluated(Site site) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  return r.sites[static_cast<int>(site)].evaluated;
}

// ---------------------------------------------------------------------------
// PlanScope
// ---------------------------------------------------------------------------

struct PlanScope::Saved {
  FaultPlan plan;
  SiteState sites[kNumSites];
};

PlanScope::PlanScope(const FaultPlan& p) : saved_(new Saved()) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lk(r.mu);
  saved_->plan = r.plan;
  for (int i = 0; i < kNumSites; i++) saved_->sites[i] = r.sites[i];
  install_locked(r, p);
}

PlanScope::~PlanScope() {
  Registry& r = registry();
  {
    std::lock_guard<std::mutex> lk(r.mu);
    r.plan = saved_->plan;
    for (int i = 0; i < kNumSites; i++) r.sites[i] = saved_->sites[i];
    gEnabledMask.store(mask_of(r.plan), std::memory_order_release);
  }
  delete saved_;
}

}  // namespace sbd::fault
