// Table 7 — locking operations per second, by effect, per benchmark.
//
// Single-threaded SBD runs; the STM's per-effect counters divided by
// the run's wall time. The reproduced shape: LuIndex/LuSearch lead in
// Check-New (they build large object graphs per section); H2 is tiny in
// everything but relatively Acq-heavy (its work is in the DB); Tomcat
// has the highest Acq&Rls share (many small write-locked sections).
// The paper's Sunflow leads in Init and Check-Owned; ours reads its scene
// through per-tile array read views (the loop hoisting the paper's JIT
// does), so its Check-Owned column is 0 and its Acq column carries the
// scene's read locks instead.
//
// The IL section measures the same counters on an SBD-IL workload
// across the execution matrix of §4: {interp, compiled threaded code}
// × {O1 off, O1, O1+interprocedural summaries}. Both backends must
// report identical lock-op counts per optimization level (bit-identity
// contract, tests/il/il_backend_diff_test.cpp); the compiled backend is
// the same work in less time, and the interprocedural column shows the
// summary pass dropping covered re-locks across the call boundary.
//
//   --json PATH   write the machine-readable results (BENCH_table7.json)
//   --check       exit nonzero unless compiled >= 3x interp on the IL
//                 workload and the interprocedural pass eliminated at
//                 least one lock op per covered call site (CI smoke)
//   --il-only     skip the DaCapo section (CI smoke keeps runtime small)
#include <cstdio>
#include <string>
#include <vector>

#include "api/sbd.h"
#include "common/options.h"
#include "common/table.h"
#include "common/timing.h"
#include "dacapo/harness.h"
#include "il/compile.h"
#include "il/interp.h"
#include "il/opt.h"
#include "il/transform.h"
#include "runtime/heap.h"

namespace {

using namespace sbd;

runtime::ClassInfo* acc_class() {
  static runtime::ClassInfo* ci = runtime::register_class(
      "T7Accum", {{"sum", false, false}, {"aux", false, false}});
  return ci;
}

// A call-dense object workload — the shape the interprocedural pass is
// for: small helpers behind call boundaries, shared state threaded
// through them.
//   leaf(p): read-locks p.sum on every path to its return — the exit
//     fact the summary exports.
//   step(a, b, n) -> wrap(a + b, n): a tiny pure combinator chain,
//     (a + b) mod n behind two call boundaries. Small callees are the
//     worst case for the interpreter (per-call name lookup and frame
//     zeroing dwarf the one-instruction bodies) and the best case for
//     the compiled tier's inline frame stack.
//   hot(p, arr, n): per iteration calls leaf, re-reads p.sum (that
//     lock is droppable only with summaries), folds arr[i] and the
//     call results through step, writes p.sum.
void build_workload(il::Module& m) {
  {
    il::FnBuilder fb(m, "leaf", 1, 4);
    fb.getf(1, 0, 0, acc_class());
    fb.ret(1);
  }
  {
    il::FnBuilder fb(m, "wrap", 2, 3);
    fb.bin(2, il::BinOp::kMod, 0, 1);
    fb.ret(2);
  }
  {
    il::FnBuilder fb(m, "step", 3, 5);
    fb.bin(3, il::BinOp::kAdd, 0, 1);
    fb.call(4, "wrap", {3, 2});
    fb.ret(4);
  }
  il::FnBuilder fb(m, "hot", 3, 12);
  const int p = 0, arr = 1, n = 2, i = 3, one = 4, cond = 5, elem = 6, sum = 7,
            r = 8, acc = 9;
  fb.cst(i, 0);
  fb.cst(one, 1);
  const int head = fb.block();
  const int done = fb.block();
  fb.br(head);
  fb.at(head);
  fb.call(r, "leaf", {p});
  fb.getf(sum, p, 0, acc_class());
  fb.gete(elem, arr, i);
  fb.call(acc, "step", {elem, i, n});
  fb.call(acc, "step", {acc, r, n});
  fb.call(acc, "step", {acc, elem, n});
  fb.call(sum, "step", {sum, acc, n});
  fb.call(sum, "step", {sum, r, n});
  fb.call(sum, "step", {sum, i, n});
  fb.setf(p, 0, sum, acc_class());
  fb.bin(i, il::BinOp::kAdd, i, one);
  fb.bin(cond, il::BinOp::kLt, i, n);
  fb.cbr(cond, head, done);
  fb.at(done);
  fb.getf(sum, p, 0, acc_class());
  fb.ret(sum);
}

struct IlRow {
  std::string opt;      // "none" | "O1" | "O1+interproc"
  std::string backend;  // "interp" | "compiled"
  double ms = 0;
  uint64_t lockOps = 0;
  int64_t result = 0;
};

// One measured run; the module is prepared (locks inserted + optimized)
// by the caller. Returns the best of five for stable CI.
IlRow run_il(const il::Module& m, const il::CompiledModule& cm, bool compiled,
             int64_t iters, const char* opt) {
  IlRow row;
  row.opt = opt;
  row.backend = compiled ? "compiled" : "interp";
  row.ms = 1e100;
  for (int rep = 0; rep < 5; rep++) {
    run_sbd([&] {
      auto* p = runtime::Heap::instance().alloc_object(acc_class());
      auto* arr = runtime::Heap::instance().alloc_array(runtime::ElemKind::kI64,
                                                        static_cast<uint64_t>(iters));
      for (int64_t i = 0; i < iters; i++)
        runtime::init_write_elem(arr, static_cast<uint64_t>(i),
                                 static_cast<uint64_t>(i % 7));
      split();  // escape: the hot loop pays real lock operations
      auto& tc = core::tls_context();
      const auto before = tc.stats;
      Stopwatch sw;
      const std::vector<int64_t> args{reinterpret_cast<int64_t>(p),
                                      reinterpret_cast<int64_t>(arr), iters};
      row.result = compiled ? il::execute(cm, "hot", args) : il::execute(m, "hot", args);
      const double ms = sw.seconds() * 1000;
      if (ms < row.ms) row.ms = ms;
      const auto d = tc.stats.diff(before);
      row.lockOps = d.lockInit + d.checkNew + d.checkOwned + d.acqRls;
    });
  }
  return row;
}

void json_escape_free_rows(std::FILE* f, const std::vector<IlRow>& rows) {
  for (size_t i = 0; i < rows.size(); i++) {
    std::fprintf(f,
                 "    {\"opt\": \"%s\", \"backend\": \"%s\", \"time_ms\": %.3f, "
                 "\"lock_ops\": %llu, \"result\": %lld}%s\n",
                 rows[i].opt.c_str(), rows[i].backend.c_str(), rows[i].ms,
                 static_cast<unsigned long long>(rows[i].lockOps),
                 static_cast<long long>(rows[i].result), i + 1 < rows.size() ? "," : "");
  }
}

}  // namespace

int main(int argc, char** argv) {
  SBD_ATTACH_THREAD();
  Options opts(argc, argv);
  dacapo::Scale scale{opts.get_double("scale", 0.3)};
  const bool ilOnly = opts.get_bool("il-only", false);
  const bool check = opts.get_bool("check", false);
  const std::string jsonPath = opts.get_str("json", "");
  const int64_t kIters = opts.get_int("iters", 60000);

  struct DacapoRow {
    std::string name;
    double perSec[4];
  };
  std::vector<DacapoRow> dacapoRows;
  if (!ilOnly) {
    std::printf("=== Table 7: locking operations per second (avg, 1 thread) ===\n\n");
    TextTable t({"Benchmark", "Init", "Check New", "Check Owned", "Acq."});
    for (auto& b : dacapo::all_benchmarks()) {
      const auto r = b.sbd(scale, 1);
      const double s = r.seconds > 0 ? r.seconds : 1e-9;
      auto rate = [&](uint64_t n) { return static_cast<double>(n) / s; };
      auto per_sec = [&](uint64_t n) {
        return TextTable::fmt_count(static_cast<uint64_t>(rate(n)));
      };
      t.add_row({b.name, per_sec(r.stm.lockInit), per_sec(r.stm.checkNew),
                 per_sec(r.stm.checkOwned), per_sec(r.stm.acqRls)});
      dacapoRows.push_back({b.name,
                            {rate(r.stm.lockInit), rate(r.stm.checkNew),
                             rate(r.stm.checkOwned), rate(r.stm.acqRls)}});
    }
    t.print();
    std::printf(
        "\nShape check (paper Table 7): the Lucene pair dominates Check-New, H2 is\n"
        "small everywhere, Tomcat is Acq-heavy. The paper's Sunflow dominates\n"
        "Init+Owned; ours hoists its per-ray owned checks into array read views.\n");
  }

  // --- IL execution matrix --------------------------------------------------
  struct Level {
    const char* name;
    il::OptStats stats;
    il::Module m;
    il::CompiledModule cm;
  };
  std::vector<Level> levels(3);
  levels[0].name = "none";
  levels[1].name = "O1";
  levels[2].name = "O1+interproc";
  for (auto& lv : levels) {
    build_workload(lv.m);
    il::insert_locks(lv.m);
  }
  // O3 inlining is off for every level: the matrix attributes time
  // deltas to backend dispatch and lock-op deltas to O1/interproc, and
  // inlining the helpers would fold cross-call eliminations into
  // intraprocedural ones while also removing the calls being measured.
  levels[1].stats = il::optimize(levels[1].m, /*interproc=*/false, /*inlineSmall=*/false);
  levels[2].stats = il::optimize(levels[2].m, /*interproc=*/true, /*inlineSmall=*/false);
  for (auto& lv : levels) lv.cm = il::compile(lv.m);

  std::vector<IlRow> rows;
  for (auto& lv : levels) {
    rows.push_back(run_il(lv.m, lv.cm, false, kIters, lv.name));
    rows.push_back(run_il(lv.m, lv.cm, true, kIters, lv.name));
  }

  std::printf("\n=== Table 7b: SBD-IL backends x lock optimization (%lld iters) ===\n\n",
              static_cast<long long>(kIters));
  TextTable t2({"Optimization", "Backend", "Time[ms]", "Dyn lock ops", "Result"});
  for (auto& r : rows)
    t2.add_row({r.opt, r.backend, TextTable::fmt(r.ms, 2),
                TextTable::fmt_count(r.lockOps), std::to_string(r.result)});
  t2.print();

  // Derived quantities the CI smoke asserts on.
  const IlRow& interpBest = rows[4];    // O1+interproc, interp
  const IlRow& compiledBest = rows[5];  // O1+interproc, compiled
  const double speedup = interpBest.ms / (compiledBest.ms > 0 ? compiledBest.ms : 1e-9);
  const uint64_t interprocSaved = rows[2].lockOps - rows[4].lockOps;  // O1 -> +interproc
  const int crossCall = levels[2].stats.crossCallEliminated;
  std::printf(
      "\ncompiled speedup over interp (O1+interproc): %.2fx\n"
      "lock ops eliminated by the interprocedural pass: %llu dynamic "
      "(%d static sites)\n",
      speedup, static_cast<unsigned long long>(interprocSaved), crossCall);

  bool ok = true;
  for (size_t i = 0; i + 1 < rows.size(); i += 2) {
    if (rows[i].result != rows[i + 1].result || rows[i].lockOps != rows[i + 1].lockOps) {
      std::fprintf(stderr, "FAIL: backends disagree at opt=%s\n", rows[i].opt.c_str());
      ok = false;
    }
  }

  if (!jsonPath.empty()) {
    std::FILE* f = std::fopen(jsonPath.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "cannot write %s\n", jsonPath.c_str());
      return 1;
    }
    std::fprintf(f, "{\n  \"workload_iters\": %lld,\n",
                 static_cast<long long>(kIters));
    std::fprintf(f, "  \"il_matrix\": [\n");
    json_escape_free_rows(f, rows);
    std::fprintf(f, "  ],\n");
    std::fprintf(f,
                 "  \"eliminated_lockops\": {\"o1_static\": %d, "
                 "\"interproc_static_sites\": %d, \"interproc_dynamic\": %llu},\n",
                 levels[2].stats.locksEliminated, crossCall,
                 static_cast<unsigned long long>(interprocSaved));
    std::fprintf(f, "  \"compiled_speedup\": %.2f", speedup);
    if (!dacapoRows.empty()) {
      std::fprintf(f, ",\n  \"dacapo_ops_per_sec\": [\n");
      for (size_t i = 0; i < dacapoRows.size(); i++) {
        const auto& d = dacapoRows[i];
        std::fprintf(f,
                     "    {\"name\": \"%s\", \"init\": %.0f, \"check_new\": %.0f, "
                     "\"check_owned\": %.0f, \"acq_rls\": %.0f}%s\n",
                     d.name.c_str(), d.perSec[0], d.perSec[1], d.perSec[2], d.perSec[3],
                     i + 1 < dacapoRows.size() ? "," : "");
      }
      std::fprintf(f, "  ]\n");
    } else {
      std::fprintf(f, "\n");
    }
    std::fprintf(f, "}\n");
    std::fclose(f);
    std::printf("wrote %s\n", jsonPath.c_str());
  }

  if (check) {
    if (speedup < 3.0) {
      std::fprintf(stderr, "FAIL: compiled backend only %.2fx over interp (need 3x)\n",
                   speedup);
      ok = false;
    }
    if (crossCall < 1 || interprocSaved == 0) {
      std::fprintf(stderr,
                   "FAIL: interprocedural pass eliminated nothing "
                   "(%d sites, %llu dynamic ops)\n",
                   crossCall, static_cast<unsigned long long>(interprocSaved));
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
