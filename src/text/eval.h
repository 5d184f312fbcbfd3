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
/// retrieves block posting lists through a ListProvider and combines them
/// with the merge kernels of postings.h (galloping skip-based intersection,
/// scratch memory in the calling thread's Arena, reset after each search;
/// DESIGN.md §14). Charging follows
/// the paper's model: postings_processed = total length of the inverted
/// lists retrieved (merges are linear in those lengths).

namespace textjoin {

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
  /// is analyzer output (lowercase).
  virtual Result<BlockListHandle> GetList(const std::string& field,
                                          const std::string& token) const = 0;

  /// Posting lists for every token in `field` starting with `prefix`
  /// (truncated searches). `prefix` is the query's raw term; providers
  /// match it case-insensitively.
  virtual Result<std::vector<BlockListHandle>> GetPrefixLists(
      const std::string& field, const std::string& prefix) const = 0;
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
    size_t max_terms, bool exhaustive = false);

}  // namespace textjoin

#endif  // TEXTJOIN_TEXT_EVAL_H_
