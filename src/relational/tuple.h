#ifndef TEXTJOIN_RELATIONAL_TUPLE_H_
#define TEXTJOIN_RELATIONAL_TUPLE_H_

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/status.h"
#include "common/value.h"
#include "relational/schema.h"

/// \file
/// Row representations and small row helpers.
///
/// Four forms (DESIGN.md §14): the owning Row (a positional vector of
/// values) used at API boundaries and in results, the non-owning RowView
/// used by the batched execution hot path, the RowBatch that predicates
/// select from (one fixed row piece plus one base row per candidate, so a
/// scan filters its table's rows and a join its candidates' rows in place),
/// and the RowIdSet the plan executor carries between plan nodes: join
/// tuples held as row ids into base rows that are read in place. A Row
/// converts implicitly to a RowView, so view-taking functions accept it.
/// TupleBatch packs many fixed-width rows into one flat allocation; the
/// join-method stages stage their document rows in it instead of one Row
/// per document.

namespace textjoin {

/// A row is a positional vector of values matching some Schema.
using Row = std::vector<Value>;

/// A borrowed, read-only row (contiguous values owned elsewhere — a Row,
/// a Table, or a TupleBatch slot).
using RowView = std::span<const Value>;

class Table;

/// The rows a predicate selects among: a fixed piece, read once per call,
/// and one base row per candidate. Candidate c's row is the fixed piece
/// followed by rows[ids[c]] (rows[c] when `ids` is null), so column i is
/// fixed[i] while i is below fixed.size(), and column i - fixed.size() of
/// the candidate's base row after. A scan's batch has no fixed piece and
/// its table's rows as candidates; a join's has the left tuple's row as the
/// fixed piece and the right input's rows as candidates.
struct RowBatch {
  RowView fixed;
  const Row* rows = nullptr;
  const size_t* ids = nullptr;
  /// The table whose rows the candidates' base rows are (`rows` is then
  /// table->rows().data()), or null. A predicate may read its column codes
  /// in place of the candidates' values.
  const Table* table = nullptr;

  /// Candidate c's base row.
  const Row& candidate(size_t c) const {
    return rows[ids == nullptr ? c : ids[c]];
  }
};

/// Candidates of a RowBatch, strictly ascending. A predicate narrows it to
/// the candidates it holds for.
using Selection = std::vector<size_t>;

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

/// Join tuples held as row ids (DESIGN.md §14). Each tuple is one row id
/// per part, and a part is a vector of base rows: a catalog table's,
/// borrowed (with the table, whose column codes predicates may read), or
/// a materialized foreign-join output that the set shares ownership of.
/// The set's schema is its parts' schemas concatenated, and a column of it
/// resolves to (part, column) and is read in place. So a scan, a probe
/// reducer and a relational join pass ids up the plan, and a Row is
/// gathered only where one is output. Each base row must have its
/// part's width. Immutable once built, so pool threads may read it.
class RowIdSet {
 public:
  /// A column of the concatenated schema, located in its part.
  struct ColumnRef {
    size_t part = 0;
    size_t column = 0;  ///< Index within the part's base rows.
  };

  RowIdSet() = default;

  /// One part over `rows`, borrowed: they must outlive the set and every
  /// set derived from it. The tuples are `ids`, in order.
  static RowIdSet Borrowed(Schema schema, const std::vector<Row>& rows,
                           std::vector<size_t> ids);
  /// One borrowed part (as above) holding every row of `rows`, in order.
  static RowIdSet BorrowedAll(Schema schema, const std::vector<Row>& rows);
  /// One part over `table`'s rows, borrowed as above, that remembers the
  /// table (so do the sets derived from it), so a join's residual can read
  /// its column codes. The table must not change while the set lives.
  static RowIdSet Borrowed(Schema schema, const Table& table,
                           std::vector<size_t> ids);
  /// One table part (as above) holding every row of `table`, in order.
  static RowIdSet BorrowedAll(Schema schema, const Table& table);
  /// One part that owns `rows` and holds every one of them, in order.
  static RowIdSet Owned(Schema schema, std::vector<Row> rows);
  /// An empty set for the join of `left` and `right`: the parts of `left`
  /// followed by the parts of `right`, over left ++ right's schema, sharing
  /// both sets' owned parts. AppendJoined fills it.
  static RowIdSet JoinOf(const RowIdSet& left, const RowIdSet& right);

  /// Appends `left`'s tuple `l` joined with each of `right`'s tuples in
  /// `right_tuples`, in order, writing each tuple's ids once. `left` and
  /// `right` are the sets this set was made from by JoinOf.
  void AppendJoined(const RowIdSet& left, size_t l, const RowIdSet& right,
                    std::span<const size_t> right_tuples);

  /// The tuples at `tuples` (indices into this set), in the given order.
  RowIdSet Subset(const std::vector<size_t>& tuples) const;

  const Schema& schema() const { return schema_; }
  size_t size() const { return size_; }
  size_t num_parts() const { return parts_.size(); }

  /// Column `index` of schema(), located in its part.
  ColumnRef Locate(size_t index) const;
  /// Resolves `ref` against schema() (Schema::Resolve) and locates it.
  Result<ColumnRef> Resolve(const std::string& ref) const;

  /// The base rows of `part`.
  const std::vector<Row>& rows(size_t part) const {
    return *parts_[part].rows;
  }
  /// The table `part` borrows its rows from, or null.
  const Table* table(size_t part) const { return parts_[part].table; }
  /// The row id `tuple` holds in `part`.
  size_t id(size_t tuple, size_t part) const {
    return ids_[tuple * parts_.size() + part];
  }
  /// Every tuple's ids, tuple-major: num_parts() ids per tuple, so part
  /// p's ids are read in one pass at stride num_parts() from offset p.
  const std::vector<size_t>& ids() const { return ids_; }
  /// `tuple`'s value of `column`, read in place.
  const Value& at(size_t tuple, ColumnRef column) const {
    return rows(column.part)[id(tuple, column.part)][column.column];
  }

  /// Appends `tuple`'s row of schema() to `out`, part by part.
  void GatherInto(size_t tuple, Row& out) const;
  /// `tuple`'s row of schema().
  Row Gather(size_t tuple) const;

 private:
  struct Part {
    const std::vector<Row>* rows = nullptr;
    const Table* table = nullptr;  ///< Whose rows `rows` are, if a table's.
    size_t first_column = 0;  ///< Its first column in schema_.
    size_t width = 0;
  };

  Schema schema_;
  std::vector<Part> parts_;
  std::vector<size_t> ids_;  ///< Tuple-major, parts_.size() ids per tuple.
  size_t size_ = 0;          ///< The tuple count, ids_.size() / parts.
  /// The owned parts, shared with every set derived from this one.
  std::vector<std::shared_ptr<const std::vector<Row>>> owned_;
};

}  // namespace textjoin

#endif  // TEXTJOIN_RELATIONAL_TUPLE_H_
