#ifndef TEXTJOIN_TESTS_SUPPORT_REFERENCE_POSTINGS_H_
#define TEXTJOIN_TESTS_SUPPORT_REFERENCE_POSTINGS_H_

#include <cstdint>
#include <vector>

#include "common/status.h"
#include "text/inverted_index.h"
#include "text/postings.h"
#include "text/query.h"
#include "text/searchable.h"

/// \file
/// The flat reference form of the posting lists and of Boolean search
/// (test support, not part of the engine). A PostingList is an
/// array-of-structs list with one heap-allocated position vector per
/// posting, merged by the plain linear merges the paper's text-system model
/// assumes (Section 2.1). The block kernels of text/postings.h and the
/// evaluator of text/eval.h must agree with these exactly: same docs, same
/// positions and the same postings_processed charge. postings_test,
/// engine_fuzz_test and bench_micro's block-vs-reference pairs hold them to
/// it.

namespace textjoin {

/// One posting: a document and the positions at which the term occurs in
/// the indexed field.
struct Posting {
  DocNum doc = 0;
  std::vector<TokenPos> positions;  ///< Sorted ascending.
};

/// A posting list, sorted by doc number (ascending, unique).
using PostingList = std::vector<Posting>;

/// Aggregate counter: every merge below adds the number of input postings it
/// scanned, which is the quantity the cost model charges c_p for.
struct MergeCounter {
  uint64_t postings_processed = 0;
};

/// Docs present in both lists. Positions are taken from `a` (caller chooses
/// which side's positions survive; used by conjunction).
PostingList IntersectLists(const PostingList& a, const PostingList& b,
                           MergeCounter* counter);

/// Docs present in either list. Positions are merged (sorted, deduplicated)
/// for docs in both.
PostingList UnionLists(const PostingList& a, const PostingList& b,
                       MergeCounter* counter);

/// Docs present in `a` but not `b`.
PostingList DifferenceLists(const PostingList& a, const PostingList& b,
                            MergeCounter* counter);

/// Phrase step: docs where some position p in `a` has p+1 in `b`; resulting
/// positions are the p+1 values (so chains of adjacency steps implement
/// multi-word phrases).
PostingList PhraseAdjacent(const PostingList& a, const PostingList& b,
                           MergeCounter* counter);

/// Proximity step: docs present in both lists where some position pair
/// (pa, pb) satisfies |pa - pb| <= distance. Resulting positions are the
/// qualifying positions from `b`.
PostingList ProximityMerge(const PostingList& a, const PostingList& b,
                           TokenPos distance, MergeCounter* counter);

/// Extracts the sorted doc numbers of `list`.
std::vector<DocNum> DocsOf(const PostingList& list);

/// The flat form of a block list.
PostingList Materialize(const BlockPostings& list);

/// The block form of a flat list.
BlockPostings BlockPostingsFromList(const PostingList& list);

/// Evaluates `query` over `index` the reference way: each list lookup
/// materializes the index's block list into a flat PostingList, and the
/// recursive evaluator combines them with the linear merges above. The
/// arguments and the result mean what they mean for EvaluateBooleanQuery
/// (text/eval.h), which must return the same docs and charge.
Result<EngineSearchResult> ReferenceSearch(const TextQuery& query,
                                           const InvertedIndex& index,
                                           size_t num_documents,
                                           size_t max_terms, bool exhaustive);

}  // namespace textjoin

#endif  // TEXTJOIN_TESTS_SUPPORT_REFERENCE_POSTINGS_H_
