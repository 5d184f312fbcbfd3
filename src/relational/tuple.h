#ifndef TEXTJOIN_RELATIONAL_TUPLE_H_
#define TEXTJOIN_RELATIONAL_TUPLE_H_

#include <span>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/value.h"

/// \file
/// Row representations and small row helpers.
///
/// Two forms (DESIGN.md §14): the owning Row (a positional vector of
/// values) used at API boundaries and in long-lived results, and the
/// non-owning RowView used by the batched execution hot path. A Row
/// converts implicitly to a RowView, so view-taking functions accept both.
/// TupleBatch packs many fixed-width rows into one flat allocation; the
/// join-method stages stage their document rows in it instead of one Row
/// per document.

namespace textjoin {

/// A row is a positional vector of values matching some Schema.
using Row = std::vector<Value>;

/// A borrowed, read-only row (contiguous values owned elsewhere — a Row,
/// a Table, or a TupleBatch slot).
using RowView = std::span<const Value>;

/// Returns the concatenation of two rows (join output).
Row ConcatRows(RowView left, RowView right);

/// Appends the concatenation of `left` and `right` to `out` with a single
/// reserve — the batched-assembly form of ConcatRows.
void ConcatInto(RowView left, RowView right, Row& out);

/// Returns the projection of `row` onto `indices` (in the given order).
Row ProjectRow(RowView row, const std::vector<size_t>& indices);

/// Renders "[v1, v2, ...]" for debugging and example output.
std::string RowToString(RowView row);

/// Hash of an entire row, combining per-value hashes order-sensitively.
size_t HashRow(RowView row);

/// Hash/equality functors so rows can key unordered containers.
struct RowHash {
  size_t operator()(const Row& row) const { return HashRow(row); }
};
struct RowEq {
  bool operator()(const Row& a, const Row& b) const;
};

/// Lexicographic three-way comparison of rows by Value::Compare.
int CompareRows(RowView a, RowView b);

/// A batch of fixed-width rows in one flat, width-strided allocation.
/// Appending never reallocates (capacity is fixed at construction), so
/// RowViews into the batch stay valid until Clear(). The join-method
/// stages write document rows into it in place (AppendMutable) and read
/// them back as views, one allocation per batch instead of one per row.
class TupleBatch {
 public:
  static constexpr size_t kDefaultCapacity = 1024;

  explicit TupleBatch(size_t width, size_t capacity = kDefaultCapacity)
      : width_(width), capacity_(capacity), values_(width * capacity) {}

  size_t width() const { return width_; }
  size_t capacity() const { return capacity_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  RowView row(size_t i) const {
    TEXTJOIN_CHECK(i < size_, "TupleBatch row %zu out of range", i);
    return {values_.data() + i * width_, width_};
  }

  /// Appends a row slot and returns its mutable span — producers write
  /// columns in place, skipping the Row temporary. The slot's contents are
  /// unspecified (possibly stale from before a Clear()), so the producer
  /// must write every column.
  std::span<Value> AppendMutable() { return {AppendSlot(), width_}; }

  /// Discards all rows (slots are reset lazily by the next append).
  void Clear() { size_ = 0; }

 private:
  Value* AppendSlot() {
    TEXTJOIN_CHECK(size_ < capacity_, "TupleBatch overflow");
    Value* slot = values_.data() + size_ * width_;
    ++size_;
    return slot;
  }

  size_t width_;
  size_t capacity_;
  size_t size_ = 0;
  std::vector<Value> values_;  ///< width_ * capacity_ slots, flat.
};

}  // namespace textjoin

#endif  // TEXTJOIN_RELATIONAL_TUPLE_H_
