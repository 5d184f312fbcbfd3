#include "text/engine.h"

#include "common/check.h"
#include "text/eval.h"

namespace textjoin {

namespace {

/// ListProvider view over an in-memory InvertedIndex. The block accessors
/// hand out borrowed pointers into the index — the legacy accessors (kept
/// for the reference evaluator) materialize a flat copy per lookup.
class MemoryLists final : public ListProvider {
 public:
  explicit MemoryLists(const InvertedIndex* index) : index_(index) {}

  Result<PostingList> GetList(const std::string& field,
                              const std::string& token) const override {
    return index_->Lookup(field, token).Materialize();
  }

  Result<std::vector<PostingList>> GetPrefixLists(
      const std::string& field, const std::string& prefix) const override {
    std::vector<PostingList> lists;
    for (const BlockPostings* list : index_->LookupPrefix(field, prefix)) {
      lists.push_back(list->Materialize());
    }
    return lists;
  }

  Result<BlockListHandle> GetBlockList(
      const std::string& field, const std::string& token) const override {
    return BlockListHandle::Borrowed(&index_->Lookup(field, token));
  }

  Result<std::vector<BlockListHandle>> GetBlockPrefixLists(
      const std::string& field, const std::string& prefix) const override {
    std::vector<BlockListHandle> handles;
    for (const BlockPostings* list : index_->LookupPrefix(field, prefix)) {
      handles.push_back(BlockListHandle::Borrowed(list));
    }
    return handles;
  }

 private:
  const InvertedIndex* index_;
};

}  // namespace

Result<DocNum> TextEngine::AddDocument(Document doc) {
  if (docid_to_num_.count(doc.docid) != 0) {
    return Status::AlreadyExists("duplicate docid '" + doc.docid + "'");
  }
  const DocNum num = static_cast<DocNum>(docs_.size());
  docid_to_num_[doc.docid] = num;
  index_.AddDocument(num, doc);
  docs_.push_back(std::move(doc));
  return num;
}

Result<EngineSearchResult> TextEngine::Search(const TextQuery& query) const {
  return SearchWithMode(query, EvalMode::kBlock);
}

Result<EngineSearchResult> TextEngine::SearchWithMode(const TextQuery& query,
                                                      EvalMode mode) const {
  MemoryLists lists(&index_);
  return EvaluateBooleanQuery(query, lists, docs_.size(),
                              max_search_terms_, exhaustive_eval_, mode);
}

const Document& TextEngine::GetDocument(DocNum num) const {
  TEXTJOIN_CHECK(num < docs_.size(), "document number %u out of range", num);
  return docs_[num];
}

Result<DocNum> TextEngine::FindDocid(const std::string& docid) const {
  auto it = docid_to_num_.find(docid);
  if (it == docid_to_num_.end()) {
    return Status::NotFound("no document with docid '" + docid + "'");
  }
  return it->second;
}

}  // namespace textjoin
