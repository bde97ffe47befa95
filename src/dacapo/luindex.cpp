// LuIndex analog: document indexing with a fixed main + worker pair
// (the paper's LuIndex runs a fixed number of threads) and disk I/O —
// the index segment is written as one large file, which is why the
// paper's Table 8 shows LuIndex with a large undo/write buffer: the
// whole file is produced inside a single transaction.
//
// Pipeline: main generates documents into a queue; the worker tokenizes,
// stems, and feeds the inverted index; at the end the worker serializes
// the index to the segment file. As in Java, the worker blocks on the
// empty queue (wait_on) and the producer notifies after each put, so
// the section count is fixed by the documents plus a bounded number of
// waits, not by scheduling.
#include <condition_variable>
#include <map>
#include <mutex>
#include <queue>
#include <sstream>
#include <thread>

#include "api/sbd.h"
#include "common/rng.h"
#include "dacapo/harness.h"
#include "jcl/collections.h"
#include "text/analysis.h"
#include "text/index.h"
#include "tio/file.h"

namespace sbd::dacapo {

namespace {

text::CorpusConfig corpus_config(const Scale& s) {
  text::CorpusConfig cfg;
  cfg.numDocs = s.of(400);
  cfg.wordsPerDoc = 100;
  return cfg;
}

std::string segment_path(const char* variant) {
  return std::string("/tmp/sbd_luindex_") + variant + "_" + std::to_string(getpid()) +
         ".seg";
}

uint64_t index_checksum(const text::InvertedIndex& idx) {
  return sbd::fnv1a(idx.serialize());
}

// --- Baseline: native queue + native index + ofstream ---------------------

uint64_t run_baseline_once(const text::CorpusConfig& cfg) {
  std::mutex mu;
  std::condition_variable cv;
  std::queue<std::pair<uint32_t, std::string>> work;
  bool done = false;

  text::InvertedIndex index;
  std::thread worker([&] {
    for (;;) {
      std::pair<uint32_t, std::string> item;
      {
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return !work.empty() || done; });
        if (work.empty()) return;
        item = std::move(work.front());
        work.pop();
      }
      std::vector<std::string> terms;
      for (auto& tok : text::tokenize(item.second)) terms.push_back(text::stem(tok));
      index.add_document(item.first, terms);
    }
  });

  for (uint64_t d = 0; d < cfg.numDocs; d++) {
    auto textBody = text::generate_document_text(cfg, d);
    {
      std::lock_guard<std::mutex> lk(mu);
      work.emplace(static_cast<uint32_t>(d), std::move(textBody));
    }
    cv.notify_one();
  }
  {
    std::lock_guard<std::mutex> lk(mu);
    done = true;
  }
  cv.notify_all();
  worker.join();

  const std::string path = segment_path("base");
  {
    tio::TxFileWriter out(path);  // outside any section: direct writes
    out.write(index.serialize());
  }
  const uint64_t sum = index_checksum(index);
  std::remove(path.c_str());
  return sum;
}

// --- SBD: managed queue + managed postings + transactional file -----------
//
// The managed index: MStrMap term -> MVector of (docId, tf) pairs packed
// into a managed I64 pair; doc lengths in an I64Array.

class PostingEntry : public runtime::TypedRef<PostingEntry> {
 public:
  SBD_CLASS(PostingEntry, SBD_SLOT_FINAL("doc"), SBD_SLOT_FINAL("tf"))
  SBD_FIELD_FINAL_I64(0, doc)
  SBD_FIELD_FINAL_I64(1, tf)
  static PostingEntry make(int64_t doc, int64_t tf) {
    PostingEntry e = alloc();
    e.init_doc(doc);
    e.init_tf(tf);
    return e;
  }
};

class DocText : public runtime::TypedRef<DocText> {
 public:
  SBD_CLASS(DocText, SBD_SLOT_FINAL("id"), SBD_SLOT_FINAL_REF("body"))
  SBD_FIELD_FINAL_I64(0, id)
  SBD_FIELD_FINAL_REF(1, body, runtime::MString)
  static DocText make(int64_t id, runtime::MString body) {
    DocText d = alloc();
    d.init_id(id);
    d.init_body(body);
    return d;
  }
};

uint64_t run_sbd_once(const text::CorpusConfig& cfg) {
  runtime::GlobalRoot<jcl::MTaskQueue> queue;
  runtime::GlobalRoot<jcl::MStrMap> postings;
  runtime::GlobalRoot<runtime::I64Array> docLens;
  runtime::GlobalRoot<runtime::I64Array> doneFlag;
  std::string serialized;  // filled by the worker after indexing
  const std::string path = segment_path("sbd");

  run_sbd([&] {
    queue.set(jcl::MTaskQueue::make(static_cast<int64_t>(cfg.numDocs) + 1,
                                    /*useEmptyFlag=*/true));
    postings.set(jcl::MStrMap::make(256));
    docLens.set(runtime::I64Array::make(cfg.numDocs));
    doneFlag.set(runtime::I64Array::make(1));
  });

  threads::SbdThread worker([&] {
    // Off-stack TxResource: the writer's defer buffer must survive
    // checkpoint restores (README "Restore safety").
    auto* outPtr = new tio::TxFileWriter(path);
    tio::TxFileWriter& out = *outPtr;
    uint64_t indexed = 0;
    while (indexed < cfg.numDocs) {
      runtime::ManagedObject* item = queue.get().take();
      if (!item) {
        if (doneFlag.get().get(0) != 0) break;
        // Queue empty: sleep until the producer's next put or its done
        // signal. This section read the queue's empty flag and the done
        // flag (read locks, or reads the split validates under
        // versioned), so neither write can commit unseen before
        // wait_on's split, and neither notify can be lost.
        threads::wait_on(queue.get().raw());
        continue;
      }
      // Commit the take alone, so the queue's head/size write locks go
      // now and the producer's puts do not wait for this document.
      split();
      {
        // Restore-safety: the token vectors/maps close before the split.
        DocText doc(item);
        std::vector<std::string> terms;
        for (auto& tok : text::tokenize(doc.body().view()))
          terms.push_back(text::stem(tok));
        docLens.get().set(static_cast<uint64_t>(doc.id()),
                          static_cast<int64_t>(terms.size()));
        // tf per term, then into the managed postings map.
        std::map<std::string, int64_t> tf;
        for (auto& t : terms) tf[t]++;
        for (auto& [term, freq] : tf) {
          auto* vecRaw = postings.get().get_or_put(
              term, [] { return jcl::MVector::make(4).raw(); });
          jcl::MVector(vecRaw).push(PostingEntry::make(doc.id(), freq).raw());
        }
      }
      indexed++;
      split();  // one document per atomic section
    }
    // Serialize and write the segment file in ONE atomic section (the
    // paper's LuIndex behavior: a single large write transaction).
    // Terms are walked deterministically via the stemmed vocabulary so
    // the segment bytes are stable across runs and variants.
    std::map<std::string, std::vector<text::Posting>> collected;
    for (const auto& word : text::vocabulary()) {
      const std::string term = text::stem(word);
      if (collected.count(term)) continue;
      auto* vecRaw = postings.get().get(term);
      if (!vecRaw) continue;
      jcl::MVector vec(vecRaw);
      std::vector<text::Posting> plist;
      for (int64_t i = 0; i < vec.size(); i++) {
        PostingEntry e = vec.at<PostingEntry>(i);
        plist.push_back(text::Posting{static_cast<uint32_t>(e.doc()),
                                      static_cast<uint32_t>(e.tf())});
      }
      collected[term] = std::move(plist);
    }
    std::ostringstream os;
    os << "#docs " << cfg.numDocs << "\n";
    for (uint64_t d = 0; d < cfg.numDocs; d++)
      os << "#len " << d << " " << docLens.get().get(d) << "\n";
    for (const auto& [term, plist] : collected) {
      os << term;
      for (const auto& p : plist) os << ' ' << p.docId << ':' << p.termFreq;
      os << '\n';
    }
    serialized = os.str();
    out.write(serialized);
    split();  // commit the file write
    delete outPtr;
  });
  worker.start();

  run_sbd([&] {
    for (uint64_t d = 0; d < cfg.numDocs; d++) {
      runtime::MString body = runtime::MString::make(text::generate_document_text(cfg, d));
      // The queue holds every document, so a put never finds it full.
      const bool queued = queue.get().put(DocText::make(static_cast<int64_t>(d), body).raw());
      SBD_CHECK(queued);
      threads::notify_one(queue.get().raw());
      split();  // publish one document per section
    }
    doneFlag.get().set(0, 1);
    threads::notify_all(queue.get().raw());
  });
  worker.join();

  const uint64_t sum = sbd::fnv1a(serialized);
  std::remove(path.c_str());
  return sum;
}

}  // namespace

Benchmark luindex_benchmark() {
  Benchmark b;
  b.name = "LuIndex";
  b.fixedThreads = true;  // main + worker, like the paper
  b.baseline = [](const Scale& s, int) {
    return measure_baseline_run([&] { return run_baseline_once(corpus_config(s)); });
  };
  b.sbd = [](const Scale& s, int) {
    return measure_sbd_run([&] { return run_sbd_once(corpus_config(s)); });
  };
  // Our port: splits after each take and each document (worker), after
  // each put (producer) and after the segment write (finisher); the
  // worker's empty-queue wait splits inside wait_on.
  b.effort = EffortReport{4, 2, 0, 5, 1, 0, 1, 0, 38, 76, 27, 9};
  return b;
}

}  // namespace sbd::dacapo
