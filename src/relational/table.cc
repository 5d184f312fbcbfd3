#include "relational/table.h"

#include <unordered_set>

namespace textjoin {

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  ResetDictionaries();
}

Status Table::Insert(Row row) {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "row arity " + std::to_string(row.size()) + " does not match schema " +
        schema_.ToString());
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) continue;
    if (row[i].type() != schema_.column(i).type) {
      return Status::InvalidArgument(
          "type mismatch in column '" + schema_.column(i).QualifiedName() +
          "': expected " + ValueTypeName(schema_.column(i).type) + ", got " +
          ValueTypeName(row[i].type()));
    }
  }
  InsertUnchecked(std::move(row));
  return Status::OK();
}

void Table::InsertUnchecked(Row row) {
  Encode(row);
  rows_.push_back(std::move(row));
}

void Table::Clear() {
  rows_.clear();
  ResetDictionaries();
}

uint32_t Table::CodeOf(size_t column, std::string_view s) const {
  const Dictionary& dict = dictionaries_[column];
  auto it = dict.code_of.find(s);
  return it == dict.code_of.end() ? kAbsentCode : it->second;
}

void Table::ResetDictionaries() {
  dictionaries_.assign(schema_.num_columns(), Dictionary{});
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    dictionaries_[c].coded = schema_.column(c).type == ValueType::kString;
  }
}

void Table::Encode(const Row& row) {
  for (size_t c = 0; c < dictionaries_.size(); ++c) {
    Dictionary& dict = dictionaries_[c];
    if (!dict.coded) continue;
    // A cell that is neither a string nor NULL, or a string past the last
    // free code, leaves the column to be read as values from now on.
    const bool is_string =
        c < row.size() && row[c].type() == ValueType::kString;
    if (!is_string && (c >= row.size() || !row[c].is_null())) {
      dict = Dictionary{};
      continue;
    }
    uint32_t code = kNullCode;
    if (is_string) {
      const std::string& s = row[c].AsString();
      auto it = dict.code_of.find(std::string_view(s));
      if (it == dict.code_of.end()) {
        if (dict.code_of.size() == kAbsentCode) {
          dict = Dictionary{};
          continue;
        }
        it = dict.code_of
                 .emplace(s, static_cast<uint32_t>(dict.code_of.size()))
                 .first;
      }
      code = it->second;
    }
    dict.row_codes.push_back(code);
  }
}

size_t Table::CountDistinct(const std::vector<size_t>& column_indices) const {
  std::unordered_set<Row, RowHash, RowEq> seen;
  seen.reserve(rows_.size());
  for (const Row& row : rows_) {
    seen.insert(ProjectRow(row, column_indices));
  }
  return seen.size();
}

}  // namespace textjoin
