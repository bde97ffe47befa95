// Where the bench's threads run.
//
// On a small VM the scheduler's placement of communicating threads
// decides latency: with the serve threads left unpinned, p50 on
// serve-kv settled per process at either ~0.021 or ~0.033 ms (4-vCPU
// host), while one process's own windows agreed within 5%. Pinning the
// load generator and the program's threads to fixed CPUs removes that
// mode switch.
#pragma once

#include <set>
#include <vector>

namespace sbd::bench {

// CPUs the calling thread may run on, ascending.
std::vector<int> allowed_cpus();

// Ids of this process's threads.
std::set<long> thread_ids();

// Pins each thread that is not in `before` to one CPU of `cpus`, round
// robin in creation order; how the bench places threads that the
// program starts. Does nothing when `cpus` is empty.
void pin_threads_since(const std::set<long>& before, const std::vector<int>& cpus);

// Pins the calling thread to one CPU for the rest of its life.
void pin_self(int cpu);

}  // namespace sbd::bench
