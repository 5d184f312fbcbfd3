#include "relational/tuple.h"

#include <numeric>

#include "relational/table.h"

namespace textjoin {

Row ConcatRows(RowView left, RowView right) {
  Row out;
  ConcatInto(left, right, out);
  return out;
}

void ConcatInto(RowView left, RowView right, Row& out) {
  out.reserve(out.size() + left.size() + right.size());
  out.insert(out.end(), left.begin(), left.end());
  out.insert(out.end(), right.begin(), right.end());
}

Row ProjectRow(RowView row, const std::vector<size_t>& indices) {
  Row out;
  out.reserve(indices.size());
  for (size_t i : indices) {
    TEXTJOIN_CHECK(i < row.size(), "projection index %zu out of range", i);
    out.push_back(row[i]);
  }
  return out;
}

std::string RowToString(RowView row) {
  std::string out = "[";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i != 0) out += ", ";
    out += row[i].ToString();
  }
  out += "]";
  return out;
}

size_t HashRow(RowView row) {
  size_t h = 0x345678;
  for (const Value& v : row) {
    h ^= v.Hash() + 0x9e3779b9 + (h << 6) + (h >> 2);
  }
  return h;
}

bool RowEq::operator()(const Row& a, const Row& b) const {
  return CompareRows(a, b) == 0;
}

int CompareRows(RowView a, RowView b) {
  const size_t n = a.size() < b.size() ? a.size() : b.size();
  for (size_t i = 0; i < n; ++i) {
    const int c = a[i].Compare(b[i]);
    if (c != 0) return c;
  }
  if (a.size() < b.size()) return -1;
  if (a.size() > b.size()) return 1;
  return 0;
}

RowIdSet RowIdSet::Borrowed(Schema schema, const std::vector<Row>& rows,
                            std::vector<size_t> ids) {
  RowIdSet set;
  set.parts_.push_back({&rows, nullptr, 0, schema.num_columns()});
  set.schema_ = std::move(schema);
  set.ids_ = std::move(ids);
  set.size_ = set.ids_.size();
  return set;
}

RowIdSet RowIdSet::BorrowedAll(Schema schema, const std::vector<Row>& rows) {
  std::vector<size_t> ids(rows.size());
  std::iota(ids.begin(), ids.end(), size_t{0});
  return Borrowed(std::move(schema), rows, std::move(ids));
}

RowIdSet RowIdSet::Borrowed(Schema schema, const Table& table,
                            std::vector<size_t> ids) {
  RowIdSet set = Borrowed(std::move(schema), table.rows(), std::move(ids));
  set.parts_[0].table = &table;
  return set;
}

RowIdSet RowIdSet::BorrowedAll(Schema schema, const Table& table) {
  RowIdSet set = BorrowedAll(std::move(schema), table.rows());
  set.parts_[0].table = &table;
  return set;
}

RowIdSet RowIdSet::Owned(Schema schema, std::vector<Row> rows) {
  auto owned = std::make_shared<const std::vector<Row>>(std::move(rows));
  RowIdSet set = BorrowedAll(std::move(schema), *owned);
  set.owned_.push_back(std::move(owned));
  return set;
}

RowIdSet RowIdSet::JoinOf(const RowIdSet& left, const RowIdSet& right) {
  RowIdSet set;
  set.schema_ = left.schema_.Concat(right.schema_);
  set.parts_ = left.parts_;
  for (Part part : right.parts_) {
    part.first_column += left.schema_.num_columns();
    set.parts_.push_back(part);
  }
  set.owned_ = left.owned_;
  set.owned_.insert(set.owned_.end(), right.owned_.begin(),
                    right.owned_.end());
  return set;
}

void RowIdSet::AppendJoined(const RowIdSet& left, size_t l,
                            const RowIdSet& right,
                            std::span<const size_t> right_tuples) {
  const size_t left_width = left.parts_.size();
  const size_t right_width = right.parts_.size();
  const size_t width = parts_.size();
  TEXTJOIN_CHECK(width == left_width + right_width,
                 "AppendJoined onto a set not made by JoinOf");
  const size_t n = right_tuples.size();
  const size_t old = ids_.size();
  ids_.resize(old + n * width);
  size_t* out = ids_.data() + old;
  // Part by part, one strided pass over the new tuples (a per-tuple copy
  // of a part-wide run would be a library call per tuple): the left
  // tuple's ids repeat, and each right tuple's are read in turn.
  for (size_t p = 0; p < left_width; ++p) {
    const size_t id = left.id(l, p);
    for (size_t k = 0; k < n; ++k) out[k * width + p] = id;
  }
  for (size_t p = 0; p < right_width; ++p) {
    const size_t* from = right.ids_.data() + p;
    for (size_t k = 0; k < n; ++k) {
      out[k * width + left_width + p] = from[right_tuples[k] * right_width];
    }
  }
  size_ += n;
}

RowIdSet RowIdSet::Subset(const std::vector<size_t>& tuples) const {
  RowIdSet set;
  set.schema_ = schema_;
  set.parts_ = parts_;
  set.owned_ = owned_;
  const size_t width = parts_.size();
  set.ids_.resize(tuples.size() * width);
  for (size_t p = 0; p < width; ++p) {
    for (size_t k = 0; k < tuples.size(); ++k) {
      set.ids_[k * width + p] = ids_[tuples[k] * width + p];
    }
  }
  set.size_ = tuples.size();
  return set;
}

RowIdSet::ColumnRef RowIdSet::Locate(size_t index) const {
  for (size_t p = 0; p < parts_.size(); ++p) {
    if (index < parts_[p].first_column + parts_[p].width) {
      return {p, index - parts_[p].first_column};
    }
  }
  TEXTJOIN_UNREACHABLE("column index beyond the set's schema");
}

Result<RowIdSet::ColumnRef> RowIdSet::Resolve(const std::string& ref) const {
  TEXTJOIN_ASSIGN_OR_RETURN(size_t index, schema_.Resolve(ref));
  return Locate(index);
}

void RowIdSet::GatherInto(size_t tuple, Row& out) const {
  out.reserve(out.size() + schema_.num_columns());
  for (size_t p = 0; p < parts_.size(); ++p) {
    const Row& base = rows(p)[id(tuple, p)];
    out.insert(out.end(), base.begin(), base.end());
  }
}

Row RowIdSet::Gather(size_t tuple) const {
  Row out;
  GatherInto(tuple, out);
  return out;
}

}  // namespace textjoin
