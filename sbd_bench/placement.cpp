#include "placement.h"

#include <sched.h>

#include <filesystem>
#include <string>

namespace sbd::bench {

namespace {

void pin(long tid, int cpu) {
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(static_cast<pid_t>(tid), sizeof(set), &set);
}

}  // namespace

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return out;
  for (int c = 0; c < CPU_SETSIZE; c++)
    if (CPU_ISSET(c, &set)) out.push_back(c);
  return out;
}

std::set<long> thread_ids() {
  std::set<long> out;
  std::error_code ec;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task", ec))
    out.insert(std::stol(e.path().filename().string()));
  return out;
}

void pin_threads_since(const std::set<long>& before, const std::vector<int>& cpus) {
  if (cpus.empty()) return;
  size_t next = 0;
  for (long tid : thread_ids())  // ascending ids: creation order
    if (!before.count(tid)) pin(tid, cpus[next++ % cpus.size()]);
}

void pin_self(int cpu) { pin(0, cpu); }

}  // namespace sbd::bench
