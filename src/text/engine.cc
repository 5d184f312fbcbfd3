#include "text/engine.h"

#include "common/check.h"
#include "text/eval.h"

namespace textjoin {

namespace {

/// ListProvider view over an in-memory InvertedIndex: hands out borrowed
/// pointers into the index, so search never copies a list.
class MemoryLists final : public ListProvider {
 public:
  explicit MemoryLists(const InvertedIndex* index) : index_(index) {}

  Result<BlockListHandle> GetList(const std::string& field,
                                  const std::string& token) const override {
    return BlockListHandle::Borrowed(&index_->Lookup(field, token));
  }

  Result<std::vector<BlockListHandle>> GetPrefixLists(
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
  MemoryLists lists(&index_);
  return EvaluateBooleanQuery(query, lists, docs_.size(),
                              max_search_terms_, exhaustive_eval_);
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
