#ifndef TEXTJOIN_TEXT_EVAL_H_
#define TEXTJOIN_TEXT_EVAL_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "text/postings.h"
#include "text/query.h"
#include "text/searchable.h"

/// \file
/// The Boolean search evaluator, shared by every engine implementation:
/// retrieves posting lists through a ListProvider and combines them with
/// the merge kernels of postings.h. Charging follows the paper's model:
/// postings_processed = total length of the inverted lists retrieved
/// (merges are linear in those lengths).
///
/// Two evaluation modes (DESIGN.md §14): the vectorized block path
/// (galloping skip-based intersection over block-compressed lists, scratch
/// memory in a per-search Arena) and the legacy flat-vector path, kept as
/// the differential-testing reference. Both produce identical docs and
/// identical postings_processed.

namespace textjoin {

/// Evaluation engine selector. Every engine evaluates with kBlock; only
/// differential tests and benchmarks ask for kLegacy explicitly.
enum class EvalMode {
  kBlock,   ///< Block-compressed lists, skip intersection, arena scratch.
  kLegacy,  ///< Flat Posting vectors and linear merges (reference).
};

/// A possibly-owning handle to a block posting list. In-memory providers
/// hand out borrowed pointers into the index (zero copy); disk providers
/// decode into a heap list the handle keeps alive.
class BlockListHandle {
 public:
  BlockListHandle() = default;

  static BlockListHandle Borrowed(const BlockPostings* list) {
    BlockListHandle h;
    h.ptr_ = list;
    return h;
  }
  static BlockListHandle Owned(std::shared_ptr<const BlockPostings> list) {
    BlockListHandle h;
    h.ptr_ = list.get();
    h.owned_ = std::move(list);
    return h;
  }

  const BlockPostings& operator*() const { return *ptr_; }
  const BlockPostings* operator->() const { return ptr_; }
  const BlockPostings* get() const { return ptr_; }

 private:
  const BlockPostings* ptr_ = nullptr;
  std::shared_ptr<const BlockPostings> owned_;
};

/// Where posting lists come from: an in-memory index, or an on-disk index
/// with a main-memory directory.
class ListProvider {
 public:
  virtual ~ListProvider() = default;

  /// The posting list for `token` in `field` (empty if absent). `token`
  /// is already analyzed (lowercase).
  virtual Result<PostingList> GetList(const std::string& field,
                                      const std::string& token) const = 0;

  /// Posting lists for every token in `field` starting with `prefix`
  /// (truncated searches).
  virtual Result<std::vector<PostingList>> GetPrefixLists(
      const std::string& field, const std::string& prefix) const = 0;

  /// Block form of GetList. The default implementation adapts GetList by
  /// re-encoding (correct for any provider); the real providers override
  /// it to avoid the copy entirely.
  virtual Result<BlockListHandle> GetBlockList(const std::string& field,
                                               const std::string& token) const;

  /// Block form of GetPrefixLists (same default-adaptation contract).
  virtual Result<std::vector<BlockListHandle>> GetBlockPrefixLists(
      const std::string& field, const std::string& prefix) const;
};

/// Evaluates `query` against `lists`. `num_documents` is needed for NOT
/// (complement); `max_terms` enforces the per-search limit M.
///
/// `exhaustive` disables the empty-accumulator short-circuits (AND and
/// phrase evaluation normally stop reading lists once the intersection is
/// provably empty). Results are identical either way; only
/// postings_processed changes. Sharded topologies use exhaustive mode to
/// make the charge exactly additive across shards: with short-circuiting,
/// a shard whose local intersection empties early reads fewer postings
/// than its slice of the single-backend evaluation would.
Result<EngineSearchResult> EvaluateBooleanQuery(
    const TextQuery& query, const ListProvider& lists, size_t num_documents,
    size_t max_terms, bool exhaustive = false,
    EvalMode mode = EvalMode::kBlock);

}  // namespace textjoin

#endif  // TEXTJOIN_TEXT_EVAL_H_
