#ifndef TEXTJOIN_RELATIONAL_TABLE_STATS_H_
#define TEXTJOIN_RELATIONAL_TABLE_STATS_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "relational/expression.h"
#include "relational/table.h"

/// \file
/// Per-table statistics used by the optimizer's relational cost estimates.

namespace textjoin {

/// Statistics for one column.
struct ColumnStats {
  size_t num_distinct = 0;  ///< Exact distinct count (tables fit in memory).
  Value min;                ///< Minimum non-null value; NULL if all null.
  Value max;                ///< Maximum non-null value; NULL if all null.
  size_t num_nulls = 0;
  /// Equi-depth histogram fences: kHistogramBuckets+1 sorted values
  /// (empty when the column has no non-null values). Bucket i holds the
  /// values in [fence[i], fence[i+1]], each bucket ~1/kHistogramBuckets of
  /// the rows.
  std::vector<Value> histogram;

  bool operator==(const ColumnStats&) const = default;
};

/// Statistics for a whole table, computed eagerly by Analyze().
class TableStats {
 public:
  /// Number of equi-depth buckets per column histogram.
  static constexpr size_t kHistogramBuckets = 10;

  TableStats() = default;

  /// Computes row count and per-column stats for `table`.
  static TableStats Analyze(const Table& table);

  size_t num_rows() const { return num_rows_; }
  const ColumnStats& column(size_t i) const { return columns_.at(i); }
  size_t num_columns() const { return columns_.size(); }

  /// Distinct count for a column, by index.
  size_t NumDistinct(size_t column_index) const {
    return columns_.at(column_index).num_distinct;
  }

  /// Estimated selectivity of `col = literal`: 1 / num_distinct (uniform
  /// assumption, as in System R).
  double EqSelectivity(size_t column_index) const;

  /// Estimated selectivity of a comparison predicate against a literal.
  /// With a literal and a histogram, range predicates interpolate over the
  /// equi-depth buckets; otherwise the System-R default 1/3 applies.
  /// Inequality (!=) uses 1 - EqSelectivity.
  double CompareSelectivity(CompareOp op, size_t column_index,
                            const Value* literal = nullptr) const;

  /// Fraction of rows with column value strictly below `v` (histogram
  /// interpolation; 0.5 without a histogram).
  double FractionBelow(size_t column_index, const Value& v) const;

  bool operator==(const TableStats&) const = default;

 private:
  size_t num_rows_ = 0;
  std::vector<ColumnStats> columns_;
};

}  // namespace textjoin

#endif  // TEXTJOIN_RELATIONAL_TABLE_STATS_H_
