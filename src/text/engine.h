#ifndef TEXTJOIN_TEXT_ENGINE_H_
#define TEXTJOIN_TEXT_ENGINE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "text/document.h"
#include "text/inverted_index.h"
#include "text/query.h"
#include "text/searchable.h"

/// \file
/// The in-memory Boolean text retrieval engine: the "Mercury server"
/// substrate. It owns a document collection and a positional inverted
/// index, evaluates Boolean searches by sorted-list merging (text/eval.h),
/// and enforces the per-search term limit M (70 in Mercury). For the
/// lists-on-disk variant see text/storage.h.

namespace textjoin {

/// An in-memory Boolean text retrieval system.
class TextEngine final : public SearchableCorpus {
 public:
  /// `max_search_terms` is the per-search term limit M; Mercury's is 70.
  explicit TextEngine(size_t max_search_terms = 70)
      : max_search_terms_(max_search_terms) {}
  TextEngine(const TextEngine&) = delete;
  TextEngine& operator=(const TextEngine&) = delete;

  /// Adds and indexes a document; returns its document number. Fails with
  /// AlreadyExists on a duplicate docid.
  Result<DocNum> AddDocument(Document doc);

  /// Evaluates a Boolean search. Fails with ResourceExhausted when the
  /// query has more than max_search_terms() basic terms, mirroring the
  /// server limit that forces semi-join batching.
  Result<EngineSearchResult> Search(const TextQuery& query) const override;

  /// Retrieves the long form of a document by number.
  const Document& GetDocument(DocNum num) const override;

  /// Looks up a document by its external docid.
  Result<DocNum> FindDocid(const std::string& docid) const override;

  size_t num_documents() const override { return docs_.size(); }
  size_t max_search_terms() const override { return max_search_terms_; }
  void set_max_search_terms(size_t m) { max_search_terms_ = m; }

  /// Exhaustive Boolean evaluation (no empty-accumulator short-circuits):
  /// identical results, shard-additive postings charge. See eval.h.
  void set_exhaustive_eval(bool exhaustive) { exhaustive_eval_ = exhaustive; }
  bool exhaustive_eval() const { return exhaustive_eval_; }
  const InvertedIndex& index() const { return index_; }

  /// The whole collection, in document-number order (used by the
  /// brute-force reference executor and the workload generators).
  const std::vector<Document>& documents() const { return docs_; }

 private:
  size_t max_search_terms_;
  bool exhaustive_eval_ = false;
  std::vector<Document> docs_;
  std::unordered_map<std::string, DocNum> docid_to_num_;
  InvertedIndex index_;
};

}  // namespace textjoin

#endif  // TEXTJOIN_TEXT_ENGINE_H_
