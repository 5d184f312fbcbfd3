#include "text/eval.h"

#include <utility>

#include "common/arena.h"
#include "common/check.h"
#include "text/analyzer.h"

namespace textjoin {

namespace {

/// Vectorized evaluator over block-compressed lists. A term list is
/// charged at retrieval (handle size, no decode), and the empty-accumulator
/// short-circuit sits before the next retrieval — the same traversal and
/// charging as the flat reference evaluator in tests/support, which the
/// differential tests hold it to.
///
/// Operands are either a raw block list (a single-token term leaf — lets
/// conjunctions run block x block with skip pointers on both sides, never
/// decoding blocks that cannot match) or an arena-backed decoded view.
class BlockEvaluator {
 public:
  /// Evaluates with scratch memory from `arena`, which must outlive it.
  BlockEvaluator(const ListProvider& lists, size_t num_documents,
                 bool exhaustive, Arena& arena)
      : lists_(lists), num_documents_(num_documents),
        exhaustive_(exhaustive), arena_(arena) {}

  Result<EngineSearchResult> Run(const TextQuery& query) {
    TEXTJOIN_ASSIGN_OR_RETURN(Operand root, Eval(query));
    EngineSearchResult result;
    if (root.is_block()) {
      result.docs.resize(root.handle->size());
      root.handle->DecodeDocsInto(result.docs.data());
    } else {
      result.docs.assign(root.view.docs, root.view.docs + root.view.size);
    }
    result.postings_processed = postings_;
    return result;
  }

 private:
  struct Operand {
    BlockListHandle handle;  ///< Set iff this is an undecoded block list.
    PostingsView view;

    bool is_block() const { return handle.get() != nullptr; }
    bool docs_empty() const {
      return is_block() ? handle->empty() : view.empty();
    }
  };

  static Operand BlockOperand(BlockListHandle handle) {
    Operand op;
    op.handle = std::move(handle);
    return op;
  }
  static Operand ViewOperand(PostingsView view) {
    Operand op;
    op.view = view;
    return op;
  }

  /// Decodes a block operand (docids into the arena, positions borrowed).
  /// The handle moves into keepalive_ so borrowed positions outlive every
  /// merge this search performs.
  PostingsView ViewOf(Operand op) {
    if (!op.is_block()) return op.view;
    PostingsView view = DecodeBlockPostings(*op.handle, arena_);
    keepalive_.push_back(std::move(op.handle));
    return view;
  }

  Result<Operand> Eval(const TextQuery& node) {
    switch (node.kind()) {
      case TextQuery::Kind::kTerm:
        return EvalTerm(node);
      case TextQuery::Kind::kAnd: {
        TEXTJOIN_ASSIGN_OR_RETURN(Operand acc, Eval(*node.children()[0]));
        for (size_t i = 1; i < node.children().size(); ++i) {
          if (acc.docs_empty() && !exhaustive_) break;  // short-circuit
          TEXTJOIN_ASSIGN_OR_RETURN(Operand next, Eval(*node.children()[i]));
          FlatPostings out;
          if (acc.is_block() && next.is_block()) {
            out = IntersectBlocks(*acc.handle, *next.handle, arena_);
            keepalive_.push_back(std::move(acc.handle));
            keepalive_.push_back(std::move(next.handle));
          } else if (!acc.is_block() && next.is_block()) {
            out = IntersectViewBlock(acc.view, *next.handle, arena_);
            keepalive_.push_back(std::move(next.handle));
          } else {
            // Positions must survive from the accumulator side.
            out = IntersectViews(ViewOf(std::move(acc)),
                                 ViewOf(std::move(next)), arena_);
          }
          acc = ViewOperand(out.View());
        }
        return acc;
      }
      case TextQuery::Kind::kOr: {
        TEXTJOIN_ASSIGN_OR_RETURN(Operand first, Eval(*node.children()[0]));
        PostingsView acc = ViewOf(std::move(first));
        for (size_t i = 1; i < node.children().size(); ++i) {
          TEXTJOIN_ASSIGN_OR_RETURN(Operand next, Eval(*node.children()[i]));
          acc = UnionViews(acc, ViewOf(std::move(next)), arena_).View();
        }
        return ViewOperand(acc);
      }
      case TextQuery::Kind::kNear: {
        TEXTJOIN_ASSIGN_OR_RETURN(Operand left, Eval(*node.children()[0]));
        TEXTJOIN_ASSIGN_OR_RETURN(Operand right, Eval(*node.children()[1]));
        PostingsView lv = ViewOf(std::move(left));
        PostingsView rv = ViewOf(std::move(right));
        return ViewOperand(
            ProximityViews(lv, rv, node.near_distance(), arena_).View());
      }
      case TextQuery::Kind::kNot: {
        TEXTJOIN_ASSIGN_OR_RETURN(Operand child, Eval(*node.children()[0]));
        PostingsView cv = ViewOf(std::move(child));
        postings_ += num_documents_;
        return ViewOperand(DifferenceViews(AllDocs(), cv, arena_).View());
      }
    }
    TEXTJOIN_UNREACHABLE("bad TextQuery kind");
  }

  Result<Operand> EvalTerm(const TextQuery& node) {
    if (node.term_kind() == TermKind::kPrefix) {
      TEXTJOIN_ASSIGN_OR_RETURN(
          std::vector<BlockListHandle> prefix_lists,
          lists_.GetPrefixLists(node.field(), node.term()));
      PostingsView acc = EmptyPostingsView();
      for (BlockListHandle& handle : prefix_lists) {
        postings_ += handle->size();
        PostingsView next = ViewOf(BlockOperand(std::move(handle)));
        acc = UnionViews(acc, next, arena_).View();
      }
      return ViewOperand(acc);
    }
    const std::vector<std::string> tokens = AnalyzeTerm(node.term());
    if (tokens.empty()) return ViewOperand(EmptyPostingsView());
    TEXTJOIN_ASSIGN_OR_RETURN(BlockListHandle first,
                              lists_.GetList(node.field(), tokens[0]));
    postings_ += first->size();
    if (tokens.size() == 1) return BlockOperand(std::move(first));
    // Phrase: chain adjacency steps over decoded views.
    PostingsView acc = ViewOf(BlockOperand(std::move(first)));
    for (size_t i = 1; i < tokens.size(); ++i) {
      if (acc.empty() && !exhaustive_) break;
      TEXTJOIN_ASSIGN_OR_RETURN(BlockListHandle next,
                                lists_.GetList(node.field(), tokens[i]));
      postings_ += next->size();
      PostingsView nv = ViewOf(BlockOperand(std::move(next)));
      acc = PhraseAdjacentViews(acc, nv, arena_).View();
    }
    return ViewOperand(acc);
  }

  /// The collection as a view: every doc with a single position 0 (the
  /// complement base for NOT).
  PostingsView AllDocs() {
    const uint32_t n = static_cast<uint32_t>(num_documents_);
    FlatPostings all = FlatPostings::Make(arena_, n, n);
    for (uint32_t d = 0; d < n; ++d) {
      all.AppendDoc(d);
      all.AppendPosition(0);
    }
    return all.View();
  }

  const ListProvider& lists_;
  size_t num_documents_;
  bool exhaustive_;
  uint64_t postings_ = 0;
  Arena& arena_;
  std::vector<BlockListHandle> keepalive_;
};

Status CheckTermLimit(const TextQuery& query, size_t max_terms) {
  const size_t terms = query.CountTerms();
  if (terms > max_terms) {
    return Status::ResourceExhausted(
        "search has " + std::to_string(terms) + " terms; the limit is " +
        std::to_string(max_terms));
  }
  return Status::OK();
}

}  // namespace

Result<EngineSearchResult> EvaluateBooleanQuery(const TextQuery& query,
                                                const ListProvider& lists,
                                                size_t num_documents,
                                                size_t max_terms,
                                                bool exhaustive) {
  TEXTJOIN_RETURN_IF_ERROR(CheckTermLimit(query, max_terms));
  // The calling thread's scratch, reset after each search, so a thread's
  // searches reuse one chunk. One search at a time holds it: no
  // ListProvider evaluates a search.
  thread_local Arena scratch;
  BlockEvaluator evaluator(lists, num_documents, exhaustive, scratch);
  Result<EngineSearchResult> result = evaluator.Run(query);
  scratch.Reset();
  return result;
}

}  // namespace textjoin
