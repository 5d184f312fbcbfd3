#ifndef TEXTJOIN_TEXT_INVERTED_INDEX_H_
#define TEXTJOIN_TEXT_INVERTED_INDEX_H_

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "text/analyzer.h"
#include "text/document.h"
#include "text/postings.h"

/// \file
/// The inversion-based access method the paper assumes (Section 2.1): each
/// (field, word) maps to a sorted positional posting list; a main-memory
/// directory maps a word to its list. Lists are stored block-compressed
/// (BlockPostings, DESIGN.md §14); lookups hand out borrowed pointers so
/// search never copies a list.

namespace textjoin {

/// Per-field positional inverted index over a growing document collection.
class InvertedIndex {
 public:
  InvertedIndex() = default;
  InvertedIndex(const InvertedIndex&) = delete;
  InvertedIndex& operator=(const InvertedIndex&) = delete;

  /// Indexes every field of `doc` under document number `num`. Documents
  /// must be added in increasing `num` order (posting lists stay sorted).
  void AddDocument(DocNum num, const Document& doc);

  /// The posting list for `token` in `field`; empty list if absent.
  /// `token` is analyzer output (lowercase): it is matched as given, with
  /// no case folding and no copy. The reference stays valid while the
  /// index is alive (lists are never removed), though appending more
  /// documents may extend it.
  const BlockPostings& Lookup(std::string_view field,
                              std::string_view token) const;

  /// Posting lists for every indexed token in `field` starting with
  /// `prefix` (supports truncated searches like 'filter?'). `prefix` is a
  /// raw query term and is matched case-insensitively.
  std::vector<const BlockPostings*> LookupPrefix(
      std::string_view field, std::string_view prefix) const;

  /// LookupPrefix with the matched token names: visits every (token, list)
  /// in ascending token order. Snapshot views (text/live_corpus.h) use the
  /// names to merge main-segment lists with delta-chunk lists per token.
  void ForEachPrefix(
      std::string_view field, std::string_view prefix,
      const std::function<void(const std::string& token,
                               const BlockPostings& list)>& visit) const;

  /// Number of documents whose `field` contains the raw term `token`
  /// (matched case-insensitively).
  size_t DocFrequency(std::string_view field, std::string_view token) const;

  /// Total number of postings in `field`'s lists for the raw term `token`
  /// (matched case-insensitively) — the inverted-list length the cost
  /// model's L quantity measures.
  size_t ListLength(std::string_view field, std::string_view token) const;

  /// Names of all indexed fields.
  std::vector<std::string> FieldNames() const;

  /// Total number of postings across all lists (index size metric).
  uint64_t TotalPostings() const { return total_postings_; }

  /// Number of distinct tokens indexed in `field`.
  size_t VocabularySize(std::string_view field) const;

  /// Visits every (field, token, posting list) triple in deterministic
  /// (field, token) order — used by the on-disk serializer.
  void ForEachList(
      const std::function<void(const std::string& field,
                               const std::string& token,
                               const BlockPostings& list)>& visit) const;

 private:
  // field -> token -> posting list. Ordered maps enable prefix range scans;
  // transparent comparators let string_view tokens probe without a
  // temporary std::string per lookup.
  using TokenMap = std::map<std::string, BlockPostings, std::less<>>;
  std::map<std::string, TokenMap, std::less<>> fields_;
  uint64_t total_postings_ = 0;
};

}  // namespace textjoin

#endif  // TEXTJOIN_TEXT_INVERTED_INDEX_H_
