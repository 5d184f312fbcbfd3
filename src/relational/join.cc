#include "relational/join.h"

#include <numeric>
#include <unordered_map>

namespace textjoin {

namespace {

/// Writes the projection of `row` onto `cols` into `key`; false when any
/// key value is NULL (such a row joins with nothing).
bool KeyOf(const Row& row, const std::vector<size_t>& cols, Row& key) {
  key.clear();
  for (size_t c : cols) {
    if (row[c].is_null()) return false;
    key.push_back(row[c]);
  }
  return true;
}

}  // namespace

Result<std::vector<Row>> JoinRows(const Schema& left_schema,
                                  const std::vector<Row>& left,
                                  const Schema& right_schema,
                                  const std::vector<Row>& right,
                                  const std::vector<JoinKey>& keys,
                                  ExprPtr residual) {
  std::vector<size_t> left_cols;
  std::vector<size_t> right_cols;
  for (const JoinKey& key : keys) {
    TEXTJOIN_ASSIGN_OR_RETURN(size_t l, left_schema.Resolve(key.left_ref));
    TEXTJOIN_ASSIGN_OR_RETURN(size_t r, right_schema.Resolve(key.right_ref));
    left_cols.push_back(l);
    right_cols.push_back(r);
  }
  if (residual != nullptr) {
    TEXTJOIN_RETURN_IF_ERROR(residual->Bind(left_schema.Concat(right_schema)));
  }

  // Candidates per left row: the right-row indices sharing its key, or
  // every right row when there are no keys.
  std::unordered_map<Row, std::vector<size_t>, RowHash, RowEq> buckets;
  std::vector<size_t> every_right;
  Row key;
  if (keys.empty()) {
    every_right.resize(right.size());
    std::iota(every_right.begin(), every_right.end(), size_t{0});
  } else {
    for (size_t r = 0; r < right.size(); ++r) {
      if (KeyOf(right[r], right_cols, key)) buckets[key].push_back(r);
    }
  }

  std::vector<Row> out;
  Row joined;
  for (const Row& l : left) {
    const std::vector<size_t>* candidates = &every_right;
    if (!keys.empty()) {
      if (!KeyOf(l, left_cols, key)) continue;
      auto it = buckets.find(key);
      if (it == buckets.end()) continue;
      candidates = &it->second;
    }
    for (size_t r : *candidates) {
      joined.clear();
      ConcatInto(l, right[r], joined);
      if (residual != nullptr && !ValueIsTrue(residual->Eval(joined))) {
        continue;
      }
      out.push_back(std::move(joined));
    }
  }
  return out;
}

}  // namespace textjoin
