#include "core/ids.h"

#include <bit>
#include <sstream>

#include "common/check.h"
#include "common/timing.h"
#include "core/queue.h"

namespace sbd::core {

namespace {
// Home-shard assignment: round-robin per thread, so concurrently active
// threads start their claim sweep on different shard words.
std::atomic<unsigned> gHomeGen{0};
unsigned home_shard() {
  static thread_local const unsigned home = gHomeGen.fetch_add(1, std::memory_order_relaxed);
  return home;
}

}  // namespace

TxnIdPool::TxnIdPool() {
  for (int s = 0; s < kShards; s++)
    shards_[s].store((1ULL << kIdsPerShard) - 1, std::memory_order_relaxed);
}

int TxnIdPool::try_acquire() {
  const unsigned home = home_shard();
  for (int i = 0; i < kShards; i++) {
    const int s = static_cast<int>((home + i) % kShards);
    uint64_t bits = shards_[s].load(std::memory_order_seq_cst);
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      if (shards_[s].compare_exchange_weak(bits, bits & ~(1ULL << bit),
                                           std::memory_order_acq_rel))
        return s * kIdsPerShard + bit;
    }
  }
  return -1;
}

int TxnIdPool::acquire_for(uint64_t timeoutNanos) {
  int id = try_acquire();
  const uint64_t deadline =
      timeoutNanos == kNoDeadline ? kNoDeadline : now_nanos() + timeoutNanos;
  while (id < 0) {
    // release() frees the bit before it unparks, so the lot's recheck
    // of available() cannot miss a freed id.
    const ParkResult r = ParkingLot::instance().park(
        shards_, [this] { return available() == 0; }, 0, deadline);
    id = try_acquire();
    if (r == ParkResult::kTimedOut) break;
  }
  return id;
}

int TxnIdPool::acquire() { return acquire_for(kNoDeadline); }

void TxnIdPool::release(int id) {
  SBD_CHECK(id >= 0 && id < kMaxTxns);
  const int s = id / kIdsPerShard;
  const uint64_t bit = 1ULL << (id % kIdsPerShard);
  const uint64_t prev = shards_[s].fetch_or(bit, std::memory_order_seq_cst);
  SBD_CHECK_MSG((prev & bit) == 0, "double release of txn id");
  ParkingLot::instance().unpark_one(shards_);
}

int TxnIdPool::available() const {
  int n = 0;
  for (int s = 0; s < kShards; s++)
    n += std::popcount(shards_[s].load(std::memory_order_acquire));
  return n;
}

int TxnIdPool::waiters() const {
  return static_cast<int>(ParkingLot::instance().parked_on(shards_));
}

std::string TxnIdPool::diagnose() const {
  std::ostringstream os;
  os << "txn-id pool: " << available() << "/" << kMaxTxns << " free, " << waiters()
     << " waiting";
  return os.str();
}

}  // namespace sbd::core
