// Inverted index + TF-IDF searcher (native data structures). The
// baseline (explicit-synchronization) benchmark variants use these
// directly under std::mutex; the SBD variants rebuild the same logic on
// managed collections (src/dacapo) so both variants run identical
// algorithms over identical corpora.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace sbd::text {

struct Posting {
  uint32_t docId;
  uint32_t termFreq;
};

struct SearchHit {
  uint32_t docId;
  double score;
};

class InvertedIndex {
 public:
  // Adds a document's tokens (already analyzed). Not thread-safe.
  void add_document(uint32_t docId, const std::vector<std::string>& tokens);

  const std::vector<Posting>* postings(const std::string& term) const;
  uint32_t doc_count() const { return static_cast<uint32_t>(docLens_.size()); }
  uint64_t doc_length(uint32_t docId) const;

  // TF-IDF top-k disjunctive query.
  std::vector<SearchHit> search(const std::vector<std::string>& terms, int k) const;

  // Serializes as text lines: "term docId:tf docId:tf ...\n" sorted by
  // term, so index files are byte-identical across variants.
  std::string serialize() const;
  static InvertedIndex deserialize(const std::string& data);

 private:
  std::unordered_map<std::string, std::vector<Posting>> postings_;
  std::vector<uint64_t> docLens_;  // indexed by docId
};

// TF-IDF scoring shared by all index implementations: tf * ln(1 + N/df),
// normalized by document length.
double tfidf_score(uint32_t tf, uint32_t df, uint32_t numDocs, uint64_t docLen);

// Top-k selection over (docId, score) accumulators, deterministic
// tie-break by docId.
std::vector<SearchHit> top_k(const std::unordered_map<uint32_t, double>& acc, int k);

}  // namespace sbd::text
