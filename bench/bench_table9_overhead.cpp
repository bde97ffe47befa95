// Table 9 — SBD overhead vs explicit locking across thread counts,
// plus the conflict counters (abort rate, contended acquires, CAS
// failures), and Figure 7 — scalability — from the same runs: each
// variant's speedup over its own single-threaded time, base(1)/base(T)
// and sbd(1)/sbd(T) (LuIndex excluded: fixed threads, as in the paper).
//
// Host note: the paper used a 32-core Xeon. Once the thread count
// exceeds the host's cores the threads time-share, so the speedup
// columns flatten there by physics; the OVERHEAD column (SBD time /
// baseline time at the same thread count) stays comparable.
#include <cmath>
#include <cstdio>

#include "common/options.h"
#include "common/table.h"
#include "common/timing.h"
#include "dacapo/harness.h"
#include "runtime/heap.h"

int main(int argc, char** argv) {
  SBD_ATTACH_THREAD();
  using namespace sbd;
  Options opts(argc, argv);
  dacapo::Scale scale{opts.get_double("scale", 0.6)};
  const int maxThreads = static_cast<int>(opts.get_int("max-threads", 8));
  const int reps = static_cast<int>(opts.get_int("reps", 2));
  // --steady switches to the paper's Georges-style methodology (§5.1):
  // iterate until the trailing window's coefficient of variation drops
  // below the limit, then report the window mean. Slower; off by default.
  const bool steady = opts.get_bool("steady", false);
  SteadyStateConfig ssCfg;
  ssCfg.window = static_cast<int>(opts.get_int("ss-window", 5));
  ssCfg.maxIters = static_cast<int>(opts.get_int("ss-max-iters", 15));
  ssCfg.covLimit = opts.get_double("ss-cov", 0.05);

  std::printf("=== Table 9: overhead of SBD vs explicit locking ===\n\n");
  TextTable t({"Benchm.", "Thr.", "Base[s]", "Sbd[s]", "Ovr.[%]", "Abr.[%]", "Con.",
               "Fail.", "Base x", "Sbd x"});
  std::vector<double> overheads;
  for (auto& b : dacapo::all_benchmarks()) {
    std::vector<int> threadCounts;
    if (b.fixedThreads) {
      threadCounts = {1};
    } else {
      for (int n = 1; n <= maxThreads; n *= 2) threadCounts.push_back(n);
    }
    double base1 = 0, sbd1 = 0;  // the single-threaded times (Fig. 7)
    for (int threads : threadCounts) {
      double baseBest = 1e30, sbdBest = 1e30;
      dacapo::RunResult sbdLast;
      if (steady) {
        baseBest =
            measure_steady_state(ssCfg, [&] { (void)b.baseline(scale, threads); }).mean;
        sbdBest = measure_steady_state(ssCfg, [&] { sbdLast = b.sbd(scale, threads); }).mean;
      } else {
        for (int rep = 0; rep < reps; rep++) {
          baseBest = std::min(baseBest, b.baseline(scale, threads).seconds);
          sbdLast = b.sbd(scale, threads);
          sbdBest = std::min(sbdBest, sbdLast.seconds);
        }
      }
      if (threads == 1) {
        base1 = baseBest;
        sbd1 = sbdBest;
      }
      const double ovr = baseBest > 0 ? (sbdBest / baseBest - 1) * 100 : 0;
      overheads.push_back(sbdBest / (baseBest > 0 ? baseBest : 1));
      const double abr = sbdLast.stm.commits
                             ? 100.0 * static_cast<double>(sbdLast.stm.aborts) /
                                   static_cast<double>(sbdLast.stm.commits)
                             : 0;
      t.add_row({b.name, std::to_string(threads), TextTable::fmt(baseBest, 3),
                 TextTable::fmt(sbdBest, 3), TextTable::fmt(ovr, 1),
                 TextTable::fmt(abr, 1), std::to_string(sbdLast.stm.contendedAcquires),
                 std::to_string(sbdLast.stm.casFailures),
                 b.fixedThreads ? "-" : TextTable::fmt(base1 / baseBest, 2),
                 b.fixedThreads ? "-" : TextTable::fmt(sbd1 / sbdBest, 2)});
    }
  }
  t.print();
  double geo = 1;
  for (double o : overheads) geo *= o;
  geo = std::pow(geo, 1.0 / static_cast<double>(overheads.size()));
  std::printf("\nGeometric-mean SBD/baseline ratio: %.3f (paper: 1.239, i.e. 23.9%%)\n",
              geo);
  std::printf(
      "Shape check (paper Table 9): H2 lowest overhead (DB-bound), Sunflow\n"
      "highest (~2x, memory-bound), the rest in between; conflict counters\n"
      "grow with threads but abort rates stay near zero except Sunflow.\n"
      "Shape check (paper Fig. 7, Base x / Sbd x): up to the host's core count\n"
      "Sunflow/PMD/H2 scale similarly in both variants; LuSearch and Tomcat\n"
      "fall behind at high thread counts (GC pressure and the 56-transaction-id\n"
      "ceiling respectively).\n");
  return 0;
}
