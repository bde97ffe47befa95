#include "runtime/lockplan.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <vector>

#include "core/transaction.h"
#include "runtime/heap.h"
#include "runtime/object.h"

namespace sbd::runtime::lockplan {

namespace {

struct Config {
  Mode mode = Mode::kField;
  uint32_t stripes = 4;
};

Config parse_env() {
  Config cfg;
  const char* e = std::getenv("SBD_LOCK_GRANULARITY");
  if (!e || !*e) return cfg;
  const std::string s(e);
  if (s == "field") {
    cfg.mode = Mode::kField;
  } else if (s == "object") {
    cfg.mode = Mode::kObject;
  } else if (s == "versioned") {
    cfg.mode = Mode::kVersioned;
  } else if (s.rfind("striped", 0) == 0) {
    cfg.mode = Mode::kStriped;
    const auto colon = s.find(':');
    if (colon != std::string::npos) {
      const long k = std::strtol(s.c_str() + colon + 1, nullptr, 10);
      if (k >= 1 && k <= (1 << 20)) cfg.stripes = static_cast<uint32_t>(k);
    }
  } else {
    std::fprintf(stderr, "sbd: unknown SBD_LOCK_GRANULARITY '%s'; using field\n", e);
  }
  return cfg;
}

const Config& config() {
  static const Config cfg = parse_env();
  return cfg;
}

std::atomic<uint64_t> gReplans{0};
std::atomic<uint64_t> gVetoed{0};
std::atomic<uint64_t> gWedged{0};

// Serializes pins. Waiters block in a safe region — the holder may be
// about to stop the world, and a waiter that looks "running" would
// deadlock it.
std::mutex gPinMu;

std::unique_lock<std::mutex> lock_pin_safely(core::ThreadContext& tc) {
  std::unique_lock<std::mutex> lk(gPinMu, std::try_to_lock);
  if (!lk.owns_lock()) {
    core::Safepoint::SafeScope safe(tc);
    lk.lock();
  }
  return lk;
}

// World stopped: veto the change if `ci` has live lock state, else
// release its instances' lock arrays under the OLD map and swap the
// map. Walks every allocated object — including dead-but-unswept
// garbage — so no array sized under the old map outlives the swap; the
// later sweep then releases exactly the width it re-materialized with,
// keeping the Table 8 "Locks" gauge byte-exact across pins.
bool apply_stopped(ClassInfo* ci, LockMap target) {
  // Versioned read sets hold raw pointers into lock-word arrays (the
  // invisible reader touches no word, so nothing on the object records
  // its interest). Releasing such an array mid-transaction would leave
  // the parked reader's commit validation chasing pool-recycled memory
  // — veto if any live read set references the class.
  bool vetoed = false;
  core::TxnManager::instance().for_each_thread([&](core::ThreadContext* t) {
    if (!t->txn.active()) return;  // idle threads clear the set on begin
    t->txn.read_set().for_each([&](const core::VersionedRead& vr) {
      if (vr.obj->h.cls == ci) vetoed = true;
    });
  });
  std::vector<ManagedObject*> materialized;
  const bool versioned = ci->lock_map().versioned();
  Heap::instance().for_each_object([&](ManagedObject* o) {
    if (vetoed || o->h.cls != ci) return;
    core::LockWord* lp = o->locks.load(std::memory_order_acquire);
    // nullptr = new in a (parked) transaction, kUnalloc = lazy: neither
    // has lock words to migrate; both materialize under the new map.
    if (lp == nullptr || lp == kUnalloc) return;
    const uint32_t n = lock_count(o);  // width under the CURRENT map
    for (uint32_t i = 0; i < n; i++) {
      // Any nonzero word — held lock (member bits), writer/upgrader
      // flag, or a bound wait queue (threads parked in slow_acquire
      // leave their queue id in the word) — vetoes the class. Under a
      // versioned map a nonzero word is usually just a version stamp;
      // only the LSB (write-locked) marks live state there.
      if (versioned ? core::version_locked(lp[i]) : lp[i] != 0) {
        vetoed = true;
        return;
      }
    }
    materialized.push_back(o);
  });
  if (vetoed) {
    gVetoed.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  for (ManagedObject* o : materialized) release_locks(o);
  ci->lockMapBits.store(target.bits(), std::memory_order_relaxed);
  gReplans.fetch_add(1, std::memory_order_relaxed);
  return true;
}

}  // namespace

Mode mode() { return config().mode; }

uint32_t mode_stripes() { return config().stripes; }

const char* mode_name() {
  switch (config().mode) {
    case Mode::kStriped:
      return "striped";
    case Mode::kObject:
      return "object";
    case Mode::kVersioned:
      return "versioned";
    case Mode::kField:
    default:
      return "field";
  }
}

LockMap initial_map() {
  switch (config().mode) {
    case Mode::kStriped:
      return LockMap::striped_map(config().stripes);
    case Mode::kObject:
      return LockMap::object_map();
    case Mode::kVersioned:
      return LockMap::versioned_map();
    case Mode::kField:
    default:
      return LockMap::field_map();
  }
}

LockMap make_map(LockGranularity g, uint32_t stripes) {
  switch (g) {
    case LockGranularity::kStriped:
      return LockMap::striped_map(stripes);
    case LockGranularity::kObject:
      return LockMap::object_map();
    case LockGranularity::kVersioned:
      return LockMap::versioned_map();
    case LockGranularity::kField:
    default:
      return LockMap::field_map();
  }
}

void on_class_registered(ClassInfo* ci) {
  // Called before the class is published (no instance can exist yet),
  // so a plain store is enough.
  ci->lockMapBits.store(initial_map().bits(), std::memory_order_relaxed);
}

bool set_class_map(ClassInfo* ci, LockMap m) {
  core::ThreadContext& tc = core::tls_context();
  auto lk = lock_pin_safely(tc);
  if (ci->lock_map() == m) return true;
  if (!core::Safepoint::try_stop_world(tc, kPinStopBudgetNanos)) {
    gWedged.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  const bool applied = apply_stopped(ci, m);
  core::Safepoint::resume_world(tc);
  return applied;
}

Counters counters() {
  Counters c;
  c.replans = gReplans.load(std::memory_order_relaxed);
  c.vetoed = gVetoed.load(std::memory_order_relaxed);
  c.wedged = gWedged.load(std::memory_order_relaxed);
  return c;
}

}  // namespace sbd::runtime::lockplan
