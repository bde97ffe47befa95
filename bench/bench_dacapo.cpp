// DaCapo analogs — one-shot harness run with machine-readable output.
//
// Runs the SBD variant of each of the six analogs once (LuIndex with its
// fixed thread pair, everything else at --threads) and reports, per
// benchmark: wall seconds, the Table 7 lock-operation counters, and
// the Table 8 "Locks" gauge delta. The lock counters are what the lock
// granularity ablation (docs/EXPERIMENTS.md) compares across
// SBD_LOCK_GRANULARITY modes: coarser maps shrink acqRls because one
// mapped word covers several slots.
#include <cstdio>

#include "common/options.h"
#include "common/table.h"
#include "core/obs.h"
#include "dacapo/harness.h"
#include "runtime/class_info.h"
#include "runtime/heap.h"

int main(int argc, char** argv) {
  SBD_ATTACH_THREAD();
  using namespace sbd;
  Options opts(argc, argv);
  dacapo::Scale scale{opts.get_double("scale", 0.25)};
  const int threads = static_cast<int>(opts.get_int("threads", 2));
  const std::string jsonPath = opts.get_str("json", "");
  const std::string only = opts.get_str("only", "");

  std::printf("=== DaCapo analogs (sbd variant, scale %.2f, %d threads, %s) ===\n\n",
              scale.factor, threads, runtime::process_lock_map().to_string());
  TextTable t({"Benchmark", "Wall[s]", "AcqRls", "Owned", "New", "LockBytes"});

  struct Row {
    std::string name;
    dacapo::RunResult r;
  };
  std::vector<Row> rows;
  for (auto& b : dacapo::all_benchmarks()) {
    if (!only.empty() && b.name != only) continue;
    const int thr = b.fixedThreads ? 2 : threads;
    Row row;
    row.name = b.name;
    row.r = b.sbd(scale, thr);
    t.add_row({row.name, TextTable::fmt(row.r.seconds, 3),
               std::to_string(row.r.stm.acqRls),
               std::to_string(row.r.stm.checkOwned),
               std::to_string(row.r.stm.checkNew),
               std::to_string(row.r.lockStructBytes)});
    rows.push_back(std::move(row));
  }
  t.print();

  if (!jsonPath.empty()) {
    std::FILE* f = std::fopen(jsonPath.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"scale\": %.3f,\n  \"threads\": %d,\n", scale.factor,
                 threads);
    std::fprintf(f, "  \"lock_granularity\": \"%s\",\n",
                 sbd::runtime::process_lock_map().to_string());
    std::fprintf(f, "  \"benchmarks\": {\n");
    for (size_t i = 0; i < rows.size(); i++) {
      const auto& row = rows[i];
      std::fprintf(
          f,
          "    \"%s\": {\"wall_s\": %.4f, "
          "\"checksum\": %llu, \"acq_rls\": %llu, \"check_owned\": %llu, "
          "\"check_new\": %llu, \"lock_init\": %llu, \"commits\": %llu, "
          "\"aborts\": %llu, \"versioned_reads\": %llu, "
          "\"validations\": %llu, \"version_aborts\": %llu, "
          "\"lock_struct_bytes\": %llu, \"version_word_bytes\": %llu}%s\n",
          row.name.c_str(), row.r.seconds,
          static_cast<unsigned long long>(row.r.checksum),
          static_cast<unsigned long long>(row.r.stm.acqRls),
          static_cast<unsigned long long>(row.r.stm.checkOwned),
          static_cast<unsigned long long>(row.r.stm.checkNew),
          static_cast<unsigned long long>(row.r.stm.lockInit),
          static_cast<unsigned long long>(row.r.stm.commits),
          static_cast<unsigned long long>(row.r.stm.aborts),
          static_cast<unsigned long long>(row.r.stm.versionedReads),
          static_cast<unsigned long long>(row.r.stm.validations),
          static_cast<unsigned long long>(row.r.stm.versionAborts),
          static_cast<unsigned long long>(row.r.lockStructBytes),
          static_cast<unsigned long long>(row.r.versionWordBytes),
          i + 1 == rows.size() ? "" : ",");
    }
    std::fprintf(f, "  }\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", jsonPath.c_str());
  }
  sbd::obs::export_metrics_if_requested();  // honors SBD_METRICS_JSON
  return 0;
}
