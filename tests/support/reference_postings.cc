#include "tests/support/reference_postings.h"

#include <algorithm>
#include <string>
#include <utility>

#include "common/check.h"
#include "text/analyzer.h"

namespace textjoin {

namespace {

void Charge(MergeCounter* counter, const PostingList& a,
            const PostingList& b) {
  if (counter != nullptr) {
    counter->postings_processed += a.size() + b.size();
  }
}

}  // namespace

PostingList IntersectLists(const PostingList& a, const PostingList& b,
                           MergeCounter* counter) {
  Charge(counter, a, b);
  PostingList out;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].doc < b[j].doc) {
      ++i;
    } else if (b[j].doc < a[i].doc) {
      ++j;
    } else {
      out.push_back(a[i]);
      ++i;
      ++j;
    }
  }
  return out;
}

PostingList UnionLists(const PostingList& a, const PostingList& b,
                       MergeCounter* counter) {
  Charge(counter, a, b);
  PostingList out;
  out.reserve(a.size() + b.size());
  size_t i = 0, j = 0;
  while (i < a.size() || j < b.size()) {
    if (j >= b.size() || (i < a.size() && a[i].doc < b[j].doc)) {
      out.push_back(a[i++]);
    } else if (i >= a.size() || b[j].doc < a[i].doc) {
      out.push_back(b[j++]);
    } else {
      Posting merged;
      merged.doc = a[i].doc;
      merged.positions.resize(a[i].positions.size() + b[j].positions.size());
      std::merge(a[i].positions.begin(), a[i].positions.end(),
                 b[j].positions.begin(), b[j].positions.end(),
                 merged.positions.begin());
      merged.positions.erase(
          std::unique(merged.positions.begin(), merged.positions.end()),
          merged.positions.end());
      out.push_back(std::move(merged));
      ++i;
      ++j;
    }
  }
  return out;
}

PostingList DifferenceLists(const PostingList& a, const PostingList& b,
                            MergeCounter* counter) {
  Charge(counter, a, b);
  PostingList out;
  size_t i = 0, j = 0;
  while (i < a.size()) {
    if (j >= b.size() || a[i].doc < b[j].doc) {
      out.push_back(a[i++]);
    } else if (b[j].doc < a[i].doc) {
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  return out;
}

PostingList PhraseAdjacent(const PostingList& a, const PostingList& b,
                           MergeCounter* counter) {
  Charge(counter, a, b);
  PostingList out;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].doc < b[j].doc) {
      ++i;
    } else if (b[j].doc < a[i].doc) {
      ++j;
    } else {
      Posting next;
      next.doc = a[i].doc;
      // Two-pointer walk over the position lists: keep q in b where q-1 in a.
      const std::vector<TokenPos>& pa = a[i].positions;
      const std::vector<TokenPos>& pb = b[j].positions;
      size_t x = 0, y = 0;
      while (x < pa.size() && y < pb.size()) {
        const TokenPos want = pa[x] + 1;
        if (pb[y] < want) {
          ++y;
        } else if (pb[y] > want) {
          ++x;
        } else {
          next.positions.push_back(pb[y]);
          ++x;
          ++y;
        }
      }
      if (!next.positions.empty()) out.push_back(std::move(next));
      ++i;
      ++j;
    }
  }
  return out;
}

PostingList ProximityMerge(const PostingList& a, const PostingList& b,
                           TokenPos distance, MergeCounter* counter) {
  Charge(counter, a, b);
  PostingList out;
  size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i].doc < b[j].doc) {
      ++i;
    } else if (b[j].doc < a[i].doc) {
      ++j;
    } else {
      Posting next;
      next.doc = a[i].doc;
      const std::vector<TokenPos>& pa = a[i].positions;
      const std::vector<TokenPos>& pb = b[j].positions;
      // Two-pointer window scan over the sorted position lists.
      size_t x = 0;
      for (size_t y = 0; y < pb.size(); ++y) {
        while (x < pa.size() && pa[x] + distance < pb[y]) ++x;
        if (x < pa.size() &&
            (pa[x] <= pb[y] ? pb[y] - pa[x] : pa[x] - pb[y]) <= distance) {
          next.positions.push_back(pb[y]);
        }
      }
      if (!next.positions.empty()) out.push_back(std::move(next));
      ++i;
      ++j;
    }
  }
  return out;
}

std::vector<DocNum> DocsOf(const PostingList& list) {
  std::vector<DocNum> docs;
  docs.reserve(list.size());
  for (const Posting& p : list) docs.push_back(p.doc);
  return docs;
}

PostingList Materialize(const BlockPostings& list) {
  PostingList out;
  out.reserve(list.size());
  std::vector<DocNum> docs(list.size());
  list.DecodeDocsInto(docs.data());
  for (uint32_t i = 0; i < list.size(); ++i) {
    Posting p;
    p.doc = docs[i];
    const std::span<const TokenPos> pos = list.PositionsOf(i);
    p.positions.assign(pos.begin(), pos.end());
    out.push_back(std::move(p));
  }
  return out;
}

BlockPostings BlockPostingsFromList(const PostingList& list) {
  BlockPostings out;
  for (const Posting& p : list) {
    for (TokenPos pos : p.positions) out.Append(p.doc, pos);
  }
  return out;
}

namespace {

/// Recursive evaluator over flat Posting vectors (mirrors the paper's
/// description of processing: retrieve lists, merge).
class ReferenceEvaluator {
 public:
  ReferenceEvaluator(const InvertedIndex& index, size_t num_documents,
                     bool exhaustive)
      : index_(index), num_documents_(num_documents),
        exhaustive_(exhaustive) {}

  Result<PostingList> Eval(const TextQuery& node) {
    switch (node.kind()) {
      case TextQuery::Kind::kTerm:
        return EvalTerm(node);
      case TextQuery::Kind::kAnd: {
        TEXTJOIN_ASSIGN_OR_RETURN(PostingList acc,
                                  Eval(*node.children()[0]));
        for (size_t i = 1; i < node.children().size(); ++i) {
          if (acc.empty() && !exhaustive_) break;  // short-circuit like a
                                                   // real engine
          TEXTJOIN_ASSIGN_OR_RETURN(PostingList next,
                                    Eval(*node.children()[i]));
          acc = IntersectLists(acc, next, /*counter=*/nullptr);
        }
        return acc;
      }
      case TextQuery::Kind::kOr: {
        PostingList acc;
        for (const TextQueryPtr& child : node.children()) {
          TEXTJOIN_ASSIGN_OR_RETURN(PostingList next, Eval(*child));
          acc = UnionLists(acc, next, /*counter=*/nullptr);
        }
        return acc;
      }
      case TextQuery::Kind::kNear: {
        TEXTJOIN_ASSIGN_OR_RETURN(PostingList left,
                                  Eval(*node.children()[0]));
        TEXTJOIN_ASSIGN_OR_RETURN(PostingList right,
                                  Eval(*node.children()[1]));
        return ProximityMerge(left, right, node.near_distance(),
                              /*counter=*/nullptr);
      }
      case TextQuery::Kind::kNot: {
        // Complement against the collection; reading the document
        // directory costs one pass over D postings.
        TEXTJOIN_ASSIGN_OR_RETURN(PostingList child,
                                  Eval(*node.children()[0]));
        postings_ += num_documents_;
        return DifferenceLists(AllDocsList(), child, /*counter=*/nullptr);
      }
    }
    TEXTJOIN_UNREACHABLE("bad TextQuery kind");
  }

  uint64_t postings() const { return postings_; }

 private:
  Result<PostingList> EvalTerm(const TextQuery& node) {
    if (node.term_kind() == TermKind::kPrefix) {
      PostingList acc;
      for (const BlockPostings* block :
           index_.LookupPrefix(node.field(), node.term())) {
        const PostingList list = Materialize(*block);
        postings_ += list.size();
        acc = UnionLists(acc, list, /*counter=*/nullptr);
      }
      return acc;
    }
    const std::vector<std::string> tokens = AnalyzeTerm(node.term());
    if (tokens.empty()) return PostingList{};
    PostingList acc = Materialize(index_.Lookup(node.field(), tokens[0]));
    postings_ += acc.size();
    for (size_t i = 1; i < tokens.size(); ++i) {
      // Short-circuit (remaining lists not read) unless exhaustive mode
      // wants the shard-additive charge.
      if (acc.empty() && !exhaustive_) break;
      const PostingList next =
          Materialize(index_.Lookup(node.field(), tokens[i]));
      postings_ += next.size();
      acc = PhraseAdjacent(acc, next, /*counter=*/nullptr);
    }
    return acc;
  }

  PostingList AllDocsList() const {
    PostingList all;
    all.reserve(num_documents_);
    for (size_t n = 0; n < num_documents_; ++n) {
      all.push_back(Posting{static_cast<DocNum>(n), {0}});
    }
    return all;
  }

  const InvertedIndex& index_;
  size_t num_documents_;
  bool exhaustive_;
  uint64_t postings_ = 0;
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

Result<EngineSearchResult> ReferenceSearch(const TextQuery& query,
                                           const InvertedIndex& index,
                                           size_t num_documents,
                                           size_t max_terms, bool exhaustive) {
  TEXTJOIN_RETURN_IF_ERROR(CheckTermLimit(query, max_terms));
  ReferenceEvaluator evaluator(index, num_documents, exhaustive);
  TEXTJOIN_ASSIGN_OR_RETURN(PostingList matched, evaluator.Eval(query));
  EngineSearchResult result;
  result.docs = DocsOf(matched);
  result.postings_processed = evaluator.postings();
  return result;
}

}  // namespace textjoin
