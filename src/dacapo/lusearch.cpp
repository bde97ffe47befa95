// LuSearch analog: N threads execute TF-IDF queries over a pre-built
// index (disk-read workload in the paper; here the index is pre-built
// in memory and each thread reads shared index structures).
//
// Table 4 fixes reproduced in the SBD variant:
//   - the shared message-digest instance becomes thread-local
//     (TxLocalI64 digest accumulator)
//   - the frequently updated directory-cache read/write conflict is
//     resolved by reordering (we read the per-thread digest before the
//     shared counter, so the read lock on the hot counter is acquired
//     last and held briefly)
#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <thread>
#include <unordered_map>

#include "api/sbd.h"
#include "common/rng.h"
#include "dacapo/harness.h"
#include "jcl/collections.h"
#include "text/analysis.h"
#include "text/index.h"
#include "threads/tx_local.h"

namespace sbd::dacapo {

namespace {

struct LuSearchConfig {
  text::CorpusConfig corpus;
  uint64_t queriesPerThread;
};

LuSearchConfig make_config(const Scale& s) {
  LuSearchConfig cfg;
  cfg.corpus.numDocs = s.of(300);
  cfg.corpus.wordsPerDoc = 80;
  cfg.queriesPerThread = s.of(150);
  return cfg;
}

text::InvertedIndex build_native_index(const text::CorpusConfig& cfg) {
  text::InvertedIndex idx;
  for (uint64_t d = 0; d < cfg.numDocs; d++) {
    std::vector<std::string> terms;
    for (auto& tok : text::generate_document(cfg, d)) terms.push_back(text::stem(tok));
    idx.add_document(static_cast<uint32_t>(d), terms);
  }
  return idx;
}

uint64_t query_checksum(const std::vector<text::SearchHit>& hits) {
  uint64_t h = 0;
  for (const auto& hit : hits) h = h * 31 + hit.docId + 1;
  return h;
}

// --- Baseline ---------------------------------------------------------------

// Same flat-array accumulation algorithm as the SBD variant (only the
// storage differs: native doubles vs managed F64Array), so the Table 9
// overhead measures synchronization, not algorithmic differences.
uint64_t native_query(const text::InvertedIndex& idx,
                      const std::vector<std::string>& terms) {
  std::vector<double> acc(idx.doc_count(), 0.0);
  for (const auto& term : terms) {
    const auto* plist = idx.postings(term);
    if (!plist) continue;
    const auto df = static_cast<uint32_t>(plist->size());
    for (const text::Posting& p : *plist)
      acc[p.docId] +=
          text::tfidf_score(p.termFreq, df, idx.doc_count(), idx.doc_length(p.docId));
  }
  std::vector<text::SearchHit> hits;
  for (uint32_t d = 0; d < idx.doc_count(); d++)
    if (acc[d] != 0) hits.push_back(text::SearchHit{d, acc[d]});
  std::sort(hits.begin(), hits.end(), [](const text::SearchHit& a, const text::SearchHit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.docId < b.docId;
  });
  if (hits.size() > 10) hits.resize(10);
  return query_checksum(hits);
}

uint64_t run_baseline_once(const LuSearchConfig& cfg, int threads) {
  const text::InvertedIndex idx = build_native_index(cfg.corpus);
  std::atomic<uint64_t> checksum{0};
  std::atomic<uint64_t> queriesDone{0};
  std::vector<std::thread> ts;
  for (int t = 0; t < threads; t++) {
    ts.emplace_back([&, t] {
      uint64_t localSum = 0;
      for (uint64_t q = 0; q < cfg.queriesPerThread; q++) {
        std::vector<std::string> terms;
        for (auto& w : text::generate_query(cfg.corpus,
                                            static_cast<uint64_t>(t) * 100000 + q))
          terms.push_back(text::stem(w));
        localSum += native_query(idx, terms);
        queriesDone.fetch_add(1, std::memory_order_relaxed);
      }
      checksum.fetch_add(localSum, std::memory_order_relaxed);
    });
  }
  for (auto& t : ts) t.join();
  return checksum.load() + queriesDone.load();
}

// --- SBD ---------------------------------------------------------------------
//
// The managed index mirrors luindex's layout: MStrMap term -> MVector of
// packed postings (doc, tf), built once before the measured region.

class Posting2 : public runtime::TypedRef<Posting2> {
 public:
  SBD_CLASS(Posting2, SBD_SLOT_FINAL("doc"), SBD_SLOT_FINAL("tf"))
  SBD_FIELD_FINAL_I64(0, doc)
  SBD_FIELD_FINAL_I64(1, tf)
  static Posting2 make(int64_t doc, int64_t tf) {
    Posting2 p = alloc();
    p.init_doc(doc);
    p.init_tf(tf);
    return p;
  }
};

struct SbdIndex {
  runtime::GlobalRoot<jcl::MStrMap> postings;
  runtime::GlobalRoot<runtime::I64Array> docLens;
  uint32_t numDocs = 0;
};

void build_sbd_index(SbdIndex& out, const text::CorpusConfig& cfg) {
  out.numDocs = static_cast<uint32_t>(cfg.numDocs);
  run_sbd([&] {
    out.postings.set(jcl::MStrMap::make(256));
    out.docLens.set(runtime::I64Array::make(cfg.numDocs));
    for (uint64_t d = 0; d < cfg.numDocs; d++) {
      {
        // Restore-safety: token containers close before the split.
        std::vector<std::string> terms;
        for (auto& tok : text::generate_document(cfg, d))
          terms.push_back(text::stem(tok));
        out.docLens.get().set(d, static_cast<int64_t>(terms.size()));
        std::map<std::string, int64_t> tf;
        for (auto& t : terms) tf[t]++;
        for (auto& [term, freq] : tf) {
          auto* vecRaw = out.postings.get().get_or_put(
              term, [] { return jcl::MVector::make(4).raw(); });
          jcl::MVector(vecRaw).push(Posting2::make(static_cast<int64_t>(d), freq).raw());
        }
      }
      if (d % 16 == 0) split();
    }
  });
}

uint64_t sbd_query(const SbdIndex& idx, const std::vector<std::string>& terms) {
  // The per-query score accumulator is a fresh managed array, as it
  // would be in Java — which is why the Lucene pair dominates the
  // Check-New column of Table 7: scratch state allocated inside the
  // section needs only the null check (Table 1 "new instance" row).
  auto acc = runtime::F64Array::make(idx.numDocs);
  // Doc lengths are read-locked once per query section, not per posting.
  const auto docLens = idx.docLens.get().read_view(sbd::context(), 0, idx.numDocs);
  for (const auto& term : terms) {
    auto* vecRaw = idx.postings.get().get(term);
    if (!vecRaw) continue;
    jcl::MVector vec(vecRaw);
    const auto df = static_cast<uint32_t>(vec.size());
    for (int64_t i = 0; i < static_cast<int64_t>(df); i++) {
      Posting2 p = vec.at<Posting2>(i);
      const auto doc = static_cast<uint32_t>(p.doc());
      acc.set(doc, acc.get(doc) + text::tfidf_score(
                                       static_cast<uint32_t>(p.tf()), df, idx.numDocs,
                                       static_cast<uint64_t>(docLens[doc])));
    }
  }
  // Same selection semantics as text::top_k over the map-based baseline:
  // untouched docs (score 0) are "absent".
  std::vector<text::SearchHit> hits;
  for (uint32_t d = 0; d < idx.numDocs; d++) {
    const double s = acc.get(d);
    if (s != 0) hits.push_back(text::SearchHit{d, s});
  }
  std::sort(hits.begin(), hits.end(), [](const text::SearchHit& a, const text::SearchHit& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.docId < b.docId;
  });
  if (hits.size() > 10) hits.resize(10);
  return query_checksum(hits);
}

uint64_t run_sbd_once(const SbdIndex& idx, const LuSearchConfig& cfg, int threads) {
  static threads::TxLocalI64 digest;  // Table 4: thread-local message digest
  runtime::GlobalRoot<runtime::I64Array> shared;
  run_sbd([&] {
    shared.set(runtime::I64Array::make(2));  // [0] queriesDone, [1] checksum
  });
  {
    std::vector<threads::SbdThread> ts;
    for (int t = 0; t < threads; t++) {
      ts.emplace_back([&, t] {
        digest.set(0);
        for (uint64_t q = 0; q < cfg.queriesPerThread; q++) {
          uint64_t sum;
          {
            // Restore-safety: term strings die before the split below.
            std::vector<std::string> terms;
            for (auto& w : text::generate_query(cfg.corpus,
                                                static_cast<uint64_t>(t) * 100000 + q))
              terms.push_back(text::stem(w));
            sum = sbd_query(idx, terms);
          }
          // Thread-local digest instead of a shared instance (Table 4).
          digest.add(static_cast<int64_t>(sum));
          // Hot shared counter last, then split immediately (fix #1 in
          // §5.2: split as soon as possible after the contended access).
          shared.get().set(0, shared.get().get(0) + 1);
          split();
        }
        // Aggregate once at the end.
        shared.get().set(1, shared.get().get(1) + digest.get());
        split();
      });
    }
    for (auto& t : ts) t.start();
    for (auto& t : ts) t.join();
  }
  uint64_t result = 0;
  run_sbd([&] {
    result = static_cast<uint64_t>(shared.get().get(1)) +
             static_cast<uint64_t>(shared.get().get(0));
  });
  return result;
}

}  // namespace

Benchmark lusearch_benchmark() {
  Benchmark b;
  b.name = "LuSearch";
  b.baseline = [](const Scale& s, int threads) {
    const auto cfg = make_config(s);
    return measure_baseline_run([&] { return run_baseline_once(cfg, threads); });
  };
  b.sbd = [](const Scale& s, int threads) {
    const auto cfg = make_config(s);
    // The index is built inside the measured run, as the baseline builds
    // its native index inside its own.
    SbdIndex idx;
    return measure_sbd_run([&] {
      build_sbd_index(idx, cfg.corpus);
      return run_sbd_once(idx, cfg, threads);
    });
  };
  b.effort = EffortReport{4, 1, 2, 2, 0, 2, 4, 2, 2, 46, 9, 4};
  return b;
}

}  // namespace sbd::dacapo
