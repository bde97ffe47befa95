// Differential testing of the two IL execution backends: every program
// — random and directed, raw and optimized — must produce the same
// result AND the same StatsCounters lock-op delta under the tree
// interpreter and the threaded-code backend, and full traces of both
// must pass the happens-before oracle. Registered once per
// lock-granularity mode in tests/CMakeLists.txt (the mode is parsed
// once per process), so bit-identity holds under field, object, and
// versioned maps.
//
// Also the home of the interprocedural-elimination unit tests
// (compute_summaries, crossCallEliminated, optimize() fixpoint) and the
// verifier negative fixtures (V5 call checks, V6 coverage / lock-mode
// mismatch against callee summaries).
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "analyzer/oracle.h"
#include "api/sbd.h"
#include "common/rng.h"
#include "core/obs.h"
#include "il/compile.h"
#include "il/interp.h"
#include "il/opt.h"
#include "il/summary.h"
#include "il/transform.h"
#include "il/verify.h"

namespace sbd::il {
namespace {

runtime::ClassInfo* obj_class() {
  static runtime::ClassInfo* ci = runtime::register_class(
      "BackendObj", {{"f0", false, false}, {"f1", false, false}, {"f2", false, false}});
  return ci;
}

// The lock-operation effects both backends must agree on exactly, plus
// the versioned-granularity counters (stamped reads and validations are
// lock operations in the Table 7 sense).
struct Delta {
  uint64_t lockInit = 0, checkNew = 0, checkOwned = 0, acqRls = 0;
  uint64_t versionedReads = 0, validations = 0, versionAborts = 0;
  uint64_t commits = 0;

  uint64_t lock_ops() const { return lockInit + checkNew + checkOwned + acqRls; }

  bool operator==(const Delta& o) const {
    return lockInit == o.lockInit && checkNew == o.checkNew &&
           checkOwned == o.checkOwned && acqRls == o.acqRls &&
           versionedReads == o.versionedReads && validations == o.validations &&
           versionAborts == o.versionAborts && commits == o.commits;
  }
  friend std::ostream& operator<<(std::ostream& os, const Delta& d) {
    return os << "{init=" << d.lockInit << " new=" << d.checkNew
              << " owned=" << d.checkOwned << " acqRls=" << d.acqRls
              << " vReads=" << d.versionedReads << " vVal=" << d.validations
              << " vAbort=" << d.versionAborts << " commits=" << d.commits << "}";
  }
};

Delta make_delta(const core::StatsCounters& d) {
  Delta out;
  out.lockInit = d.lockInit;
  out.checkNew = d.checkNew;
  out.checkOwned = d.checkOwned;
  out.acqRls = d.acqRls;
  out.versionedReads = d.versionedReads;
  out.validations = d.validations;
  out.versionAborts = d.versionAborts;
  out.commits = d.commits;
  return out;
}

struct Outcome {
  int64_t result = 0;
  Delta delta;
};

enum class Backend { kInterp, kCompiled };

// One measured run: fresh escaped object, then the program under the
// chosen backend with the stats window around exactly the execution.
Outcome run_one(const Module& m, const CompiledModule& cm, Backend be,
                const std::string& entry, int64_t scratch, int numArgs) {
  Outcome out;
  run_sbd([&] {
    auto* o = runtime::Heap::instance().alloc_object(obj_class());
    runtime::init_write(o, 0, 3);
    runtime::init_write(o, 1, 5);
    runtime::init_write(o, 2, 7);
    split();  // escape: accesses must lock
    std::vector<int64_t> args{reinterpret_cast<int64_t>(o)};
    if (numArgs > 1) args.push_back(scratch);
    auto& tc = core::tls_context();
    const auto before = tc.stats;
    out.result = be == Backend::kCompiled ? execute(cm, entry, args)
                                          : execute(m, entry, args);
    out.delta = make_delta(tc.stats.diff(before));
  });
  return out;
}

// Asserts the bit-identity contract on one module: same result, same
// lock-op delta, both backends.
void expect_backends_agree(const Module& m, const std::string& entry, int64_t scratch,
                           int numArgs, const char* tag) {
  const CompiledModule cm = compile(m);
  const Outcome i = run_one(m, cm, Backend::kInterp, entry, scratch, numArgs);
  const Outcome c = run_one(m, cm, Backend::kCompiled, entry, scratch, numArgs);
  EXPECT_EQ(i.result, c.result) << tag << " scratch=" << scratch;
  EXPECT_EQ(i.delta, c.delta) << tag << " scratch=" << scratch
                              << ": backends disagree on lock operations";
}

// --- Program generators ------------------------------------------------------

// Random straight-line + diamond field programs (same shape as
// il_differential_test, which covers optimizer-vs-plain; here the axis
// is interp-vs-compiled).
void generate(Module& m, Rng& rng) {
  FnBuilder fb(m, "f", 2, 10);
  const int numOps = 6 + static_cast<int>(rng.below(14));
  for (int i = 0; i < numOps; i++) {
    const int dst = 2 + static_cast<int>(rng.below(7));
    switch (rng.below(6)) {
      case 0:
        fb.cst(dst, static_cast<int64_t>(rng.below(100)));
        break;
      case 1:
        fb.getf(dst, 0, static_cast<int>(rng.below(3)), obj_class());
        break;
      case 2:
        fb.setf(0, static_cast<int>(rng.below(3)), dst, obj_class());
        break;
      case 3:
        fb.bin(dst, BinOp::kAdd, 2 + static_cast<int>(rng.below(7)),
               2 + static_cast<int>(rng.below(7)));
        break;
      case 4:
        fb.bin(dst, BinOp::kXor, 1, 2 + static_cast<int>(rng.below(7)));
        break;
      case 5: {
        const int thenB = fb.block();
        const int elseB = fb.block();
        const int merge = fb.block();
        fb.cbr(1, thenB, elseB);
        fb.at(thenB);
        fb.getf(dst, 0, 0, obj_class());
        fb.br(merge);
        fb.at(elseB);
        fb.setf(0, 1, 1, obj_class());
        fb.br(merge);
        fb.at(merge);
        break;
      }
    }
  }
  fb.getf(3, 0, 0, obj_class());
  fb.getf(4, 0, 1, obj_class());
  fb.getf(5, 0, 2, obj_class());
  fb.bin(6, BinOp::kAdd, 3, 4);
  fb.bin(6, BinOp::kAdd, 6, 5);
  fb.ret(6);
}

// canSplit loop: f0 += 1, iters times, one split per iteration —
// exercises kSplit, branches, and the re-lock after every split.
void build_worker(Module& m) {
  FnBuilder fb(m, "worker", 2, 8);  // l0 = object, l1 = iterations
  fb.can_split();
  const int head = fb.block();
  const int body = fb.block();
  const int done = fb.block();
  fb.cst(2, 0);  // i
  fb.cst(5, 1);  // const 1
  fb.br(head);
  fb.at(head);
  fb.bin(3, BinOp::kLt, 2, 1);
  fb.cbr(3, body, done);
  fb.at(body);
  fb.getf(4, 0, 0, obj_class());
  fb.bin(4, BinOp::kAdd, 4, 5);
  fb.setf(0, 0, 4, obj_class());
  fb.split();
  fb.bin(2, BinOp::kAdd, 2, 5);
  fb.br(head);
  fb.at(done);
  fb.getf(6, 0, 0, obj_class());
  fb.ret(6);
}

// Array program: a = new i64[n]; a[i] = 2i; sum + len == n^2.
// Exercises kNewArr/kSetE/kGetE/kLen and this-transaction-new coverage.
void build_array_fn(Module& m) {
  FnBuilder fb(m, "arr", 2, 8);  // l0 = object (unused), l1 = n
  const int h1 = fb.block();
  const int b1 = fb.block();
  const int mid = fb.block();
  const int h2 = fb.block();
  const int b2 = fb.block();
  const int done = fb.block();
  fb.new_arr(2, runtime::ElemKind::kI64, 1);
  fb.cst(3, 0);  // i
  fb.cst(4, 1);  // const 1
  fb.cst(5, 2);  // const 2
  fb.cst(6, 0);  // acc
  fb.br(h1);
  fb.at(h1);
  fb.bin(7, BinOp::kLt, 3, 1);
  fb.cbr(7, b1, mid);
  fb.at(b1);
  fb.bin(7, BinOp::kMul, 3, 5);
  fb.sete(2, 3, 7);
  fb.bin(3, BinOp::kAdd, 3, 4);
  fb.br(h1);
  fb.at(mid);
  fb.cst(3, 0);
  fb.br(h2);
  fb.at(h2);
  fb.bin(7, BinOp::kLt, 3, 1);
  fb.cbr(7, b2, done);
  fb.at(b2);
  fb.gete(7, 2, 3);
  fb.bin(6, BinOp::kAdd, 6, 7);
  fb.bin(3, BinOp::kAdd, 3, 4);
  fb.br(h2);
  fb.at(done);
  fb.len(7, 2);
  fb.bin(6, BinOp::kAdd, 6, 7);
  fb.ret(6);
}

// Caller/callee pair for the interprocedural pass: `reader` must-locks
// f0 and f1 of its parameter on every path to its return; `main`
// re-reads both after the call, so O1+summaries can drop both of its
// locks. The callee is padded past the inline threshold so O3 cannot
// turn the cross-call case into an intraprocedural one.
void build_interproc(Module& m) {
  {
    FnBuilder fb(m, "reader", 1, 6);
    for (int k = 0; k < 26; k++) fb.cst(1, k);
    fb.getf(2, 0, 0, obj_class());
    fb.getf(3, 0, 1, obj_class());
    fb.bin(4, BinOp::kAdd, 2, 3);
    fb.ret(4);
  }
  {
    FnBuilder fb(m, "main", 1, 6);
    fb.call(1, "reader", {0});
    fb.getf(2, 0, 0, obj_class());
    fb.getf(3, 0, 1, obj_class());
    fb.bin(4, BinOp::kAdd, 1, 2);
    fb.bin(4, BinOp::kAdd, 4, 3);
    fb.ret(4);
  }
}

bool has_diag(const std::vector<std::string>& diags, const std::string& needle) {
  for (const auto& d : diags)
    if (d.find(needle) != std::string::npos) return true;
  return false;
}

void erase_first_lock(Function& f, LockMode mode) {
  for (auto& b : f.blocks)
    for (auto it = b.instrs.begin(); it != b.instrs.end(); ++it)
      if (it->op == Op::kLock && it->mode == mode) {
        b.instrs.erase(it);
        return;
      }
}

// --- Random differential: interp vs compiled, raw and optimized -------------

class IlBackendDiff : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IlBackendDiff, CompiledIsBitIdenticalToInterp) {
  Rng rngA(GetParam()), rngB(GetParam());
  Module plain, optimized;
  generate(plain, rngA);
  generate(optimized, rngB);
  insert_locks(plain);
  insert_locks(optimized);
  ASSERT_TRUE(verify(plain).empty());
  optimize(optimized);
  ASSERT_TRUE(verify(optimized, compute_summaries(optimized)).empty())
      << "optimized module must still pass V6 coverage";

  for (int64_t scratch : {0, 1, -3, 42}) {
    expect_backends_agree(plain, "f", scratch, 2, "plain");
    expect_backends_agree(optimized, "f", scratch, 2, "optimized");
    // And across the optimizer axis, results (not lock counts) agree.
    const CompiledModule cp = compile(plain);
    const CompiledModule co = compile(optimized);
    EXPECT_EQ(run_one(plain, cp, Backend::kCompiled, "f", scratch, 2).result,
              run_one(optimized, co, Backend::kCompiled, "f", scratch, 2).result)
        << "seed=" << GetParam() << " scratch=" << scratch;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IlBackendDiff,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233,
                                           377, 610, 987, 1597));

// --- Directed programs: splits, calls, arrays -------------------------------

TEST(IlBackendDirected, SplitLoopAgreesAcrossBackends) {
  Module m;
  build_worker(m);
  insert_locks(m);
  ASSERT_TRUE(verify(m).empty());
  for (int64_t iters : {0, 1, 7}) {
    expect_backends_agree(m, "worker", iters, 2, "worker");
  }
  const CompiledModule cm = compile(m);
  EXPECT_EQ(run_one(m, cm, Backend::kCompiled, "worker", 7, 2).result, 3 + 7);
}

TEST(IlBackendDirected, ArrayProgramAgreesAcrossBackends) {
  Module m;
  build_array_fn(m);
  insert_locks(m);
  ASSERT_TRUE(verify(m).empty());
  Module opt;
  build_array_fn(opt);
  insert_locks(opt);
  optimize(opt);
  for (int64_t n : {0, 1, 5, 16}) {
    expect_backends_agree(m, "arr", n, 2, "arr");
    expect_backends_agree(opt, "arr", n, 2, "arr-opt");
  }
  const CompiledModule cm = compile(m);
  EXPECT_EQ(run_one(m, cm, Backend::kCompiled, "arr", 5, 2).result, 25);
}

TEST(IlBackendDirected, CallsAgreeAcrossBackends) {
  Module m;
  build_interproc(m);
  insert_locks(m);
  ASSERT_TRUE(verify(m).empty());
  expect_backends_agree(m, "main", 0, 1, "interproc-plain");
  Module opt;
  build_interproc(opt);
  insert_locks(opt);
  optimize(opt);
  expect_backends_agree(opt, "main", 0, 1, "interproc-opt");
  const CompiledModule cm = compile(m);
  const CompiledModule co = compile(opt);
  EXPECT_EQ(run_one(m, cm, Backend::kCompiled, "main", 0, 1).result,
            run_one(opt, co, Backend::kCompiled, "main", 0, 1).result);
}

// --- Interprocedural elimination unit tests ---------------------------------

TEST(IlSummaries, CalleeExitLocksComputed) {
  Module m;
  build_interproc(m);
  insert_locks(m);
  const Summaries sums = compute_summaries(m);
  ASSERT_TRUE(sums.count("reader"));
  const LockSummary& s = sums.at("reader");
  EXPECT_FALSE(s.top);
  EXPECT_FALSE(s.maySplit);
  EXPECT_FALSE(s.returnsNew);
  EXPECT_FALSE(s.exitLocks.empty() && s.exitMapped.empty())
      << "reader must-locks f0/f1 of its parameter at exit";
  const std::string dump = dump_summaries(m, sums);
  EXPECT_NE(dump.find("reader"), std::string::npos);
}

TEST(IlSummaries, RecursionIsTopAndSplitIsMaySplit) {
  Module m;
  {
    FnBuilder fb(m, "rec", 1, 3);
    fb.call(1, "rec", {0});
    fb.ret(1);
  }
  {
    FnBuilder fb(m, "splitter", 1, 3);
    fb.can_split();
    fb.getf(1, 0, 0, obj_class());
    fb.split();
    fb.ret(1);
  }
  insert_locks(m);
  const Summaries sums = compute_summaries(m);
  EXPECT_TRUE(sums.at("rec").top) << "self-recursion must be conservative top";
  EXPECT_TRUE(sums.at("splitter").maySplit);
  EXPECT_FALSE(sums.at("splitter").top)
      << "maySplit is a separate dimension from top";
}

TEST(IlSummaries, ReturnsNewTracked) {
  Module m;
  FnBuilder fb(m, "maker", 0, 2);
  fb.new_obj(0, obj_class());
  fb.ret(0);
  insert_locks(m);
  EXPECT_TRUE(compute_summaries(m).at("maker").returnsNew);
}

TEST(IlInterproc, CrossCallLocksEliminated) {
  Module intra, inter;
  build_interproc(intra);
  build_interproc(inter);
  insert_locks(intra);
  insert_locks(inter);

  const OptStats si = optimize(intra, /*interproc=*/false);
  const OptStats sx = optimize(inter, /*interproc=*/true);
  EXPECT_EQ(si.crossCallEliminated, 0);
  EXPECT_GE(sx.crossCallEliminated, 2)
      << "main's re-locks of f0 and f1 are covered by reader's summary";
  EXPECT_EQ(count_ops(*inter.get("main"), Op::kLock), 0);
  EXPECT_GT(count_ops(*intra.get("main"), Op::kLock), 0)
      << "without summaries the call must clear the state";
  ASSERT_TRUE(verify(inter, compute_summaries(inter)).empty())
      << "V6 must accept exactly what O1+summaries eliminated";

  // The static elimination is visible dynamically: strictly fewer lock
  // operations, identical result, on both backends.
  const CompiledModule ci = compile(intra);
  const CompiledModule cx = compile(inter);
  for (Backend be : {Backend::kInterp, Backend::kCompiled}) {
    const Outcome a = run_one(intra, ci, be, "main", 0, 1);
    const Outcome b = run_one(inter, cx, be, "main", 0, 1);
    EXPECT_EQ(a.result, b.result);
    EXPECT_LT(b.delta.lock_ops(), a.delta.lock_ops())
        << "interprocedural elimination must drop dynamic lock ops";
  }
}

TEST(IlInterproc, OptimizeReachesFixpoint) {
  Module m;
  build_interproc(m);
  insert_locks(m);
  const OptStats s1 = optimize(m);
  EXPECT_GT(s1.locksEliminated, 0);
  EXPECT_GE(s1.rounds, 2) << "a changing round must be followed by the quiescent one";
  const OptStats s2 = optimize(m);
  EXPECT_EQ(s2.locksEliminated, 0) << "optimize must be idempotent at the fixpoint";
  EXPECT_EQ(s2.locksHoisted, 0);
  EXPECT_EQ(s2.rounds, 1);
}

// --- Verifier negative fixtures (V5 call checks, V6 coverage) ---------------

TEST(IlVerifyNegative, UnknownCalleeAndArity) {
  Module m;
  {
    FnBuilder fb(m, "callee", 1, 3);
    fb.ret(0);
  }
  {
    FnBuilder fb(m, "bad", 1, 4);
    fb.call(1, "nope", {0});       // unknown callee
    fb.call(2, "callee", {});      // arity mismatch
    fb.call(3, "callee", {7});     // arg local out of range
    fb.ret(1);
  }
  const auto diags = verify(m);
  EXPECT_TRUE(has_diag(diags, "unknown function nope (V5)"));
  EXPECT_TRUE(has_diag(diags, "arity mismatch calling callee (V5)"));
  EXPECT_TRUE(has_diag(diags, "l7 out of range"));
}

TEST(IlVerifyNegative, UncoveredNoLockReadRejected) {
  Module m;
  FnBuilder fb(m, "r", 1, 3);
  fb.getf(1, 0, 0, obj_class());
  fb.ret(1);
  insert_locks(m);
  ASSERT_TRUE(verify(m, compute_summaries(m)).empty());  // positive control
  erase_first_lock(*m.get("r"), LockMode::kRead);
  const auto diags = verify(m, compute_summaries(m));
  EXPECT_TRUE(has_diag(diags, "no-lock field read"));
  EXPECT_TRUE(has_diag(diags, "(V6)"));
}

TEST(IlVerifyNegative, CalleeReadSummaryDoesNotCoverWrite) {
  // reader read-locks f0 of its parameter; wmain then writes f0 with
  // its own write lock stripped. The only remaining coverage is the
  // READ fact imported from the callee summary — a lock-mode mismatch
  // the verifier must reject (the write's undo logging rides on the
  // eliminated lock).
  Module m;
  {
    FnBuilder fb(m, "reader2", 1, 4);
    fb.getf(1, 0, 0, obj_class());
    fb.ret(1);
  }
  {
    FnBuilder fb(m, "wmain", 1, 4);
    fb.call(1, "reader2", {0});
    fb.setf(0, 0, 1, obj_class());
    fb.ret(1);
  }
  insert_locks(m);
  ASSERT_TRUE(verify(m, compute_summaries(m)).empty());  // positive control
  erase_first_lock(*m.get("wmain"), LockMode::kWrite);
  const auto diags = verify(m, compute_summaries(m));
  EXPECT_TRUE(has_diag(diags, "no-lock field write"));
  EXPECT_TRUE(has_diag(diags, "(V6)"));
}

// --- Oracle: concurrent compiled execution is serializable ------------------

void oracle_clean_run(Backend be) {
  Module m;
  build_worker(m);
  insert_locks(m);
  ASSERT_TRUE(verify(m).empty());
  const CompiledModule cm = compile(m);
  constexpr int kThreads = 2;
  constexpr int64_t kIters = 24;

  obs::set_enabled(true);
  obs::drain();
  const uint64_t droppedBefore = obs::dropped();
  obs::set_full_trace(true);

  runtime::ManagedObject* obj = nullptr;
  run_sbd([&] {
    obj = runtime::Heap::instance().alloc_object(obj_class());
    runtime::init_write(obj, 0, 0);
    runtime::init_write(obj, 1, 0);
    runtime::init_write(obj, 2, 0);
  });

  {
    std::vector<SbdThread> ts;
    for (int t = 0; t < kThreads; t++) {
      ts.emplace_back([&] {
        const std::vector<int64_t> args{reinterpret_cast<int64_t>(obj), kIters};
        if (be == Backend::kCompiled)
          (void)execute(cm, "worker", args);
        else
          (void)execute(m, "worker", args);
      });
    }
    for (auto& t : ts) t.start();
    for (auto& t : ts) t.join();
  }

  int64_t final = 0;
  run_sbd([&] {
    // worker with 0 iterations just reads f0 back.
    final = execute(m, "worker", {reinterpret_cast<int64_t>(obj), 0});
  });
  EXPECT_EQ(final, kThreads * kIters)
      << "each increment is atomic between splits: no lost updates";

  obs::set_full_trace(false);
  const auto events = obs::drain();
  obs::set_enabled(false);
  const uint64_t dropped = obs::dropped() - droppedBefore;
  EXPECT_EQ(dropped, 0u) << "ring overflow would blind the oracle";

  const std::vector<oracle::Rec> recs = oracle::from_obs(events);
  const oracle::Report rep = oracle::check(recs, dropped);
  EXPECT_TRUE(rep.ok()) << oracle::summary_line(rep) << "\n"
                        << oracle::format_windows(recs, rep);
  EXPECT_GT(rep.commits, 0u) << "splits must carry commit-order events";
}

TEST(IlBackendOracle, InterpTraceIsOracleClean) { oracle_clean_run(Backend::kInterp); }

TEST(IlBackendOracle, CompiledTraceIsOracleClean) {
  oracle_clean_run(Backend::kCompiled);
}

}  // namespace
}  // namespace sbd::il
