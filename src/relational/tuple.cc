#include "relational/tuple.h"

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

}  // namespace textjoin
