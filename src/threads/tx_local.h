// Thread-local memory with undo (§3.5): per-thread cells that need no
// locking (stacks/threads are isolated) but must be rolled back on
// abort, so writes go through the undo log.
//
// This is the building block of the paper's Table 4 scalability fixes:
// thread-local statistics counters aggregated on read, thread-local
// output aggregation, thread-local object caches.
#pragma once

#include <atomic>

#include "common/check.h"
#include "core/transaction.h"
#include "runtime/heap.h"

namespace sbd::threads {

namespace detail {
// Owner-thread access to a cell. Cells are atomic (relaxed: plain
// loads and stores) only so that TxLocalI64::aggregate may read them.
inline uint64_t local_get(uint32_t index) {
  return core::tls_context().txLocalCells[index].load(std::memory_order_relaxed);
}
inline void local_set(uint32_t index, uint64_t v) {
  auto& tc = core::tls_context();  // one TLS lookup for cell + undo log
  std::atomic<uint64_t>& cell = tc.txLocalCells[index];
  // The abort path restores the old value with an atomic store too.
  if (tc.txn.active())
    tc.txn.log_undo(nullptr, reinterpret_cast<uint64_t*>(&cell),
                    cell.load(std::memory_order_relaxed));
  cell.store(v, std::memory_order_relaxed);
}
inline uint32_t next_local_index() {
  static std::atomic<uint32_t> counter{0};
  const uint32_t i = counter.fetch_add(1, std::memory_order_relaxed);
  SBD_CHECK_MSG(i < core::ThreadContext::kTxLocalCells, "too many TxLocal cells");
  return i;
}
}  // namespace detail

// A per-thread 64-bit cell. Reads are free; writes cost one undo-log
// entry (no lock word, no CAS).
class TxLocalI64 {
 public:
  TxLocalI64() : index_(detail::next_local_index()) {}

  int64_t get() const { return static_cast<int64_t>(detail::local_get(index_)); }

  void set(int64_t v) { detail::local_set(index_, static_cast<uint64_t>(v)); }

  void add(int64_t delta) { set(get() + delta); }

  // Aggregates the cell's value across all live threads (the paper's
  // "thread local update of statistic counters, aggregate on read").
  int64_t aggregate() const {
    int64_t sum = 0;
    core::TxnManager::instance().for_each_thread([&](core::ThreadContext* tc) {
      sum += static_cast<int64_t>(tc->txLocalCells[index_].load(std::memory_order_relaxed));
    });
    return sum;
  }

 private:
  uint32_t index_;
};

// A per-thread managed reference cell (thread-local object caches).
template <typename RefT>
class TxLocalRef {
 public:
  TxLocalRef() : index_(detail::next_local_index()) {}

  RefT get() const {
    return RefT(reinterpret_cast<runtime::ManagedObject*>(detail::local_get(index_)));
  }

  void set(RefT v) { detail::local_set(index_, reinterpret_cast<uint64_t>(v.raw())); }

  // Returns the cached per-thread instance, creating it via `make` on
  // first use in this thread.
  template <typename MakeFn>
  RefT get_or_create(MakeFn&& make) {
    RefT cur = get();
    if (cur) return cur;
    RefT fresh = make();
    set(fresh);
    return fresh;
  }

 private:
  uint32_t index_;
};

}  // namespace sbd::threads
