#include "relational/table.h"

#include <unordered_set>

#include "common/text_match.h"

namespace textjoin {

uint32_t ColumnDictionary::Add(std::string_view s) {
  auto it = code_of_.find(s);
  if (it != code_of_.end()) return it->second;
  if (strings_.size() == kAbsentCode) return kAbsentCode;
  const auto code = static_cast<uint32_t>(strings_.size());
  strings_.push_back(&code_of_.emplace(s, code).first->first);
  AppendPreparedTerm(s, terms_);
  term_ends_.push_back(terms_.size());
  return code;
}

Table::Table(std::string name, Schema schema)
    : name_(std::move(name)), schema_(std::move(schema)) {
  ResetCodings();
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
  ResetCodings();
}

void Table::ResetCodings() {
  codings_.clear();
  codings_.resize(schema_.num_columns());
  for (size_t c = 0; c < schema_.num_columns(); ++c) {
    codings_[c].coded = schema_.column(c).type == ValueType::kString;
  }
}

void Table::Encode(const Row& row) {
  for (size_t c = 0; c < codings_.size(); ++c) {
    Coding& coding = codings_[c];
    if (!coding.coded) continue;
    // A cell that is neither a string nor NULL, or a string past the last
    // free code, leaves the column to be read as values from now on.
    const bool is_string =
        c < row.size() && row[c].type() == ValueType::kString;
    if (!is_string && (c >= row.size() || !row[c].is_null())) {
      coding = Coding{};
      continue;
    }
    const uint32_t code = is_string
                              ? coding.dictionary.Add(row[c].AsString())
                              : ColumnDictionary::kNullCode;
    if (code == ColumnDictionary::kAbsentCode) {
      coding = Coding{};
      continue;
    }
    coding.row_codes.push_back(code);
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

CodedColumn::CodedColumn(const RowIdSet& set, RowIdSet::ColumnRef column)
    : part_(column.part) {
  const Table* table = set.table(column.part);
  if (table != nullptr && table->codes(column.column) != nullptr) {
    codes_ = table->codes(column.column)->data();
    dictionary_ = table->dictionary(column.column);
    return;
  }
  const std::vector<Row>& rows = set.rows(column.part);
  TEXTJOIN_CHECK(rows.size() < ColumnDictionary::kAbsentCode,
                 "too many rows to code");
  auto built = std::make_unique<Built>();
  built->codes.reserve(rows.size());
  for (const Row& row : rows) {
    const Value& v = row[column.column];
    built->codes.push_back(v.type() == ValueType::kString
                               ? built->dictionary.Add(v.AsString())
                               : ColumnDictionary::kNullCode);
  }
  codes_ = built->codes.data();
  dictionary_ = &built->dictionary;
  built_ = std::move(built);
}

}  // namespace textjoin
