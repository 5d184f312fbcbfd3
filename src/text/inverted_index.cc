#include "text/inverted_index.h"

#include <tuple>
#include <utility>

#include "common/check.h"
#include "common/string_util.h"

namespace textjoin {

void InvertedIndex::AddDocument(DocNum num, const Document& doc) {
  std::string buffer;
  for (const auto& [field_name, values] : doc.fields) {
    TokenMap& lists = fields_[field_name];
    buffer.clear();
    for (const TokenOccurrenceView& occ :
         AnalyzeFieldValueViews(values, buffer)) {
      auto it = lists.lower_bound(occ.token);
      if (it == lists.end() || it->first != occ.token) {
        it = lists.emplace_hint(it, std::piecewise_construct,
                                std::forward_as_tuple(occ.token),
                                std::forward_as_tuple());
      }
      // Append CHECKs that documents arrive in increasing order.
      if (it->second.Append(num, occ.position)) ++total_postings_;
    }
  }
}

const BlockPostings& InvertedIndex::Lookup(std::string_view field,
                                           std::string_view token) const {
  static const BlockPostings* const kEmpty = new BlockPostings();
  auto field_it = fields_.find(field);
  if (field_it == fields_.end()) return *kEmpty;
  auto token_it = field_it->second.find(token);
  if (token_it == field_it->second.end()) return *kEmpty;
  return token_it->second;
}

std::vector<const BlockPostings*> InvertedIndex::LookupPrefix(
    std::string_view field, std::string_view prefix) const {
  std::vector<const BlockPostings*> out;
  auto field_it = fields_.find(field);
  if (field_it == fields_.end()) return out;
  const std::string lower = ToLower(prefix);
  for (auto it = field_it->second.lower_bound(lower);
       it != field_it->second.end() && StartsWith(it->first, lower); ++it) {
    out.push_back(&it->second);
  }
  return out;
}

void InvertedIndex::ForEachPrefix(
    std::string_view field, std::string_view prefix,
    const std::function<void(const std::string& token,
                             const BlockPostings& list)>& visit) const {
  auto field_it = fields_.find(field);
  if (field_it == fields_.end()) return;
  const std::string lower = ToLower(prefix);
  for (auto it = field_it->second.lower_bound(lower);
       it != field_it->second.end() && StartsWith(it->first, lower); ++it) {
    visit(it->first, it->second);
  }
}

size_t InvertedIndex::DocFrequency(std::string_view field,
                                   std::string_view token) const {
  return Lookup(field, ToLower(token)).size();
}

size_t InvertedIndex::ListLength(std::string_view field,
                                 std::string_view token) const {
  return Lookup(field, ToLower(token)).size();
}

std::vector<std::string> InvertedIndex::FieldNames() const {
  std::vector<std::string> names;
  names.reserve(fields_.size());
  for (const auto& [name, lists] : fields_) names.push_back(name);
  return names;
}

size_t InvertedIndex::VocabularySize(std::string_view field) const {
  auto it = fields_.find(field);
  return it == fields_.end() ? 0 : it->second.size();
}

void InvertedIndex::ForEachList(
    const std::function<void(const std::string&, const std::string&,
                             const BlockPostings&)>& visit) const {
  for (const auto& [field, lists] : fields_) {
    for (const auto& [token, list] : lists) {
      visit(field, token, list);
    }
  }
}

}  // namespace textjoin
