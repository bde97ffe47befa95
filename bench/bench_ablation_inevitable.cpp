// Ablation A4 — inevitable transactions vs transactional wrappers
// (paper §3.4): "Implementation of inevitable transactions ... has the
// problem of limiting actual concurrency. At most one transaction can
// be inevitable at any given moment in time. E.g., two or more
// transactions cannot execute I/O at the same time, even if they use
// different devices. To achieve good scalability, we use transactional
// wrappers instead."
//
// N threads each write to their OWN output file per section. With
// wrappers the writes buffer and commit independently; with inevitable
// sections every I/O-performing section serializes on the global token.
// The measured quantity: aggregate wall time and token acquisitions.
#include <cstdio>
#include <unistd.h>

#include "api/sbd.h"
#include "common/options.h"
#include "common/table.h"
#include "common/timing.h"
#include "core/inevitable.h"
#include "runtime/heap.h"
#include "tio/file.h"

namespace {
using namespace sbd;

// Some per-section compute so sections have realistic length.
int64_t work(int64_t seed) {
  int64_t acc = seed;
  for (int i = 0; i < 4000; i++) acc = acc * 1103515245 + 12345;
  return acc;
}

double run_variant(bool inevitable, int threads, int sectionsPerThread) {
  std::vector<std::unique_ptr<tio::TxFileWriter>> files;
  for (int t = 0; t < threads; t++)
    files.push_back(std::make_unique<tio::TxFileWriter>(
        "/tmp/sbd_inev_" + std::to_string(getpid()) + "_" + std::to_string(t)));
  Stopwatch sw;
  {
    std::vector<SbdThread> ts;
    for (int t = 0; t < threads; t++) {
      ts.emplace_back([&, t] {
        for (int i = 0; i < sectionsPerThread; i++) {
          if (inevitable) {
            // The §3.4 alternative: the section claims THE token before
            // performing I/O directly; independent devices serialize.
            core::become_inevitable();
          }
          const int64_t v = work(t * 1000 + i);
          files[static_cast<size_t>(t)]->write(std::to_string(v) + "\n");
          split();
        }
      });
    }
    for (auto& t : ts) t.start();
    for (auto& t : ts) t.join();
  }
  const double seconds = sw.seconds();
  for (int t = 0; t < threads; t++)
    std::remove(("/tmp/sbd_inev_" + std::to_string(getpid()) + "_" + std::to_string(t))
                    .c_str());
  return seconds;
}

}  // namespace

int main(int argc, char** argv) {
  SBD_ATTACH_THREAD();
  Options opts(argc, argv);
  const int threads = static_cast<int>(opts.get_int("threads", 4));
  const int sections = static_cast<int>(opts.get_int("sections", 150));

  std::printf("=== Ablation A4: inevitable transactions vs wrappers (paper 3.4) ===\n\n");
  const uint64_t tokBefore = core::inevitable_acquisitions();
  const double tWrap = run_variant(false, threads, sections);
  const double tInev = run_variant(true, threads, sections);
  const uint64_t toks = core::inevitable_acquisitions() - tokBefore;

  TextTable t({"Variant", "Time[ms]", "Token acq.", "vs wrappers"});
  t.add_row({"tx wrappers", TextTable::fmt(tWrap * 1000, 1), "0", "1.00x"});
  t.add_row({"inevitable", TextTable::fmt(tInev * 1000, 1), std::to_string(toks),
             TextTable::fmt(tInev / (tWrap > 0 ? tWrap : 1e-9), 2) + "x"});
  t.print();
  std::printf(
      "\nShape check: with independent devices the wrapper variant overlaps I/O\n"
      "sections; the inevitable variant serializes them on the single token —\n"
      "the scalability argument for transactional wrappers in the paper's 3.4.\n"
      "(With more threads than cores the wall-clock gap narrows; the token count\n"
      "shows the serialization directly.)\n");
  return 0;
}
