#ifndef TEXTJOIN_RELATIONAL_TABLE_H_
#define TEXTJOIN_RELATIONAL_TABLE_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "relational/schema.h"
#include "relational/tuple.h"

/// \file
/// In-memory heap table.

namespace textjoin {

/// A named, in-memory relation: a schema plus a vector of rows. Tables are
/// append-only (sufficient for the paper's read-only analytical workload).
///
/// Every STRING column is dictionary-coded (DESIGN.md §14): each distinct
/// string it holds has a dense code (0, 1, ... in order of first
/// appearance), and each row holds one code per such column, kNullCode for
/// a NULL cell. So `=` and `!=` against a string compare one code per row
/// instead of the strings. A column that receives any other value (which
/// InsertUnchecked does not check for) stops being coded until Clear.
class Table {
 public:
  /// A coded column's code for a NULL cell.
  static constexpr uint32_t kNullCode = UINT32_MAX;
  /// CodeOf's answer for a string no row of the column holds.
  static constexpr uint32_t kAbsentCode = UINT32_MAX - 1;

  Table(std::string name, Schema schema);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return rows_.size(); }
  const std::vector<Row>& rows() const { return rows_; }
  const Row& row(size_t i) const { return rows_.at(i); }

  /// Appends a row after checking arity and per-column type compatibility
  /// (NULL is compatible with every column type).
  Status Insert(Row row);

  /// Appends a row without validation (hot path for generators that
  /// construct rows from the schema itself).
  void InsertUnchecked(Row row);

  /// Removes all rows, keeping the schema; every STRING column is coded
  /// again.
  void Clear();

  /// Column `column`'s code of each row (num_rows() of them), or null when
  /// the column is not coded.
  const std::vector<uint32_t>* codes(size_t column) const {
    TEXTJOIN_CHECK(column < dictionaries_.size(),
                   "column %zu out of range for table %s", column,
                   name_.c_str());
    const Dictionary& dict = dictionaries_[column];
    return dict.coded ? &dict.row_codes : nullptr;
  }

  /// The code of `s` in coded column `column`, or kAbsentCode.
  uint32_t CodeOf(size_t column, std::string_view s) const;

  /// Returns the distinct count of the projection onto `column_indices`.
  size_t CountDistinct(const std::vector<size_t>& column_indices) const;

 private:
  /// Hashes std::string and std::string_view alike, so a lookup by view
  /// builds no string.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  /// One column's coding: its strings' codes and each row's code.
  struct Dictionary {
    bool coded = false;
    std::unordered_map<std::string, uint32_t, StringHash, std::equal_to<>>
        code_of;
    std::vector<uint32_t> row_codes;
  };

  /// Codes every STRING column afresh, with no rows.
  void ResetDictionaries();
  /// Appends `row`'s codes, uncoding a column whose cell is not a string or
  /// NULL.
  void Encode(const Row& row);

  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;
  std::vector<Dictionary> dictionaries_;  ///< One per column.
};

}  // namespace textjoin

#endif  // TEXTJOIN_RELATIONAL_TABLE_H_
