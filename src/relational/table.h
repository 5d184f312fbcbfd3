#ifndef TEXTJOIN_RELATIONAL_TABLE_H_
#define TEXTJOIN_RELATIONAL_TABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
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

/// The dictionary coding of one string column (DESIGN.md §14): each
/// distinct string has a dense code, 0, 1, ... in order of first
/// appearance, and keeps its string and its prepared term (the form
/// common/text_match.h matches), built once, when the code is created.
/// Not copyable: each code's string is a key of its own map.
class ColumnDictionary {
 public:
  /// The code of a NULL cell, and of any other non-string cell where a
  /// column is coded for reading (CodedColumn).
  static constexpr uint32_t kNullCode = UINT32_MAX;
  /// CodeOf's answer for a string the dictionary does not hold.
  static constexpr uint32_t kAbsentCode = UINT32_MAX - 1;

  ColumnDictionary() = default;
  ColumnDictionary(const ColumnDictionary&) = delete;
  ColumnDictionary& operator=(const ColumnDictionary&) = delete;
  ColumnDictionary(ColumnDictionary&&) = default;
  ColumnDictionary& operator=(ColumnDictionary&&) = default;

  /// The code of `s`, added with its prepared term when new; kAbsentCode
  /// when `s` is new and every code below kAbsentCode is taken.
  uint32_t Add(std::string_view s);

  /// The code of `s`, or kAbsentCode. A lookup by view builds no string.
  uint32_t CodeOf(std::string_view s) const {
    auto it = code_of_.find(s);
    return it == code_of_.end() ? kAbsentCode : it->second;
  }

  /// The number of codes.
  size_t size() const { return strings_.size(); }

  /// The string of `code` (below size()).
  const std::string& string(uint32_t code) const { return *strings_[code]; }

  /// The prepared term of `code`'s string: empty, the term that never
  /// matches, for a string without tokens and for kNullCode.
  std::string_view term(uint32_t code) const {
    if (code >= term_ends_.size()) return {};
    const size_t begin = code == 0 ? 0 : term_ends_[code - 1];
    return std::string_view(terms_).substr(begin, term_ends_[code] - begin);
  }

 private:
  /// Hashes std::string and std::string_view alike, so a lookup by view
  /// builds no string.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };

  std::unordered_map<std::string, uint32_t, StringHash, std::equal_to<>>
      code_of_;
  std::vector<const std::string*> strings_;  ///< code_of_'s keys, by code.
  std::string terms_;  ///< Every code's prepared term, back to back.
  /// The end offset in terms_ of each code's term; it starts where the
  /// previous code's ends.
  std::vector<size_t> term_ends_;
};

/// A named, in-memory relation: a schema plus a vector of rows. Tables are
/// append-only (sufficient for the paper's read-only analytical workload).
///
/// Every STRING column is dictionary-coded (DESIGN.md §14): a
/// ColumnDictionary of the strings it holds, and one code per row,
/// ColumnDictionary::kNullCode for a NULL cell. So `=` and `!=` against a
/// string compare one code per row instead of the strings, and RTP-family
/// matching reads each code's prepared term instead of preparing each
/// row's string. A column that receives any other value (which
/// InsertUnchecked does not check for) stops being coded, and drops its
/// dictionary, until Clear.
class Table {
 public:
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
  /// again, with an empty dictionary.
  void Clear();

  /// Column `column`'s code of each row (num_rows() of them), or null when
  /// the column is not coded.
  const std::vector<uint32_t>* codes(size_t column) const {
    const Coding& coding = coding_at(column);
    return coding.coded ? &coding.row_codes : nullptr;
  }

  /// Column `column`'s dictionary, or null when the column is not coded.
  const ColumnDictionary* dictionary(size_t column) const {
    const Coding& coding = coding_at(column);
    return coding.coded ? &coding.dictionary : nullptr;
  }

  /// Returns the distinct count of the projection onto `column_indices`.
  size_t CountDistinct(const std::vector<size_t>& column_indices) const;

 private:
  /// One column's coding: its dictionary and each row's code.
  struct Coding {
    bool coded = false;
    ColumnDictionary dictionary;
    std::vector<uint32_t> row_codes;
  };

  const Coding& coding_at(size_t column) const {
    TEXTJOIN_CHECK(column < codings_.size(),
                   "column %zu out of range for table %s", column,
                   name_.c_str());
    return codings_[column];
  }
  /// Codes every STRING column afresh, with no rows.
  void ResetCodings();
  /// Appends `row`'s codes, uncoding a column whose cell is not a string or
  /// NULL.
  void Encode(const Row& row);

  std::string name_;
  Schema schema_;
  std::vector<Row> rows_;
  std::vector<Coding> codings_;  ///< One per column.
};

/// Column `column` of a RowIdSet read through a dictionary (DESIGN.md §14):
/// a code per base row of the column's part, ColumnDictionary::kNullCode
/// where the cell is NULL or not a string, and per code its string and
/// prepared term. A part borrowed from a table whose column is coded lends
/// the table's coding; any other part (a row vector, an owned foreign-join
/// output, a column the table stopped coding) is coded here, once, over
/// all its base rows. The set's table, if lent, must outlive the view.
class CodedColumn {
 public:
  CodedColumn(const RowIdSet& set, RowIdSet::ColumnRef column);

  /// The set's part the column lies in.
  size_t part() const { return part_; }
  /// Base row `row`'s code.
  uint32_t code(size_t row) const { return codes_[row]; }
  /// Each code's string and prepared term.
  const ColumnDictionary& dictionary() const { return *dictionary_; }

 private:
  /// The coding of a part that no table lends.
  struct Built {
    ColumnDictionary dictionary;
    std::vector<uint32_t> codes;
  };

  size_t part_;
  const uint32_t* codes_ = nullptr;
  const ColumnDictionary* dictionary_ = nullptr;
  /// Owns what the pointers read, when built here.
  std::unique_ptr<const Built> built_;
};

}  // namespace textjoin

#endif  // TEXTJOIN_RELATIONAL_TABLE_H_
