#include "relational/join.h"

#include <numeric>
#include <unordered_map>

namespace textjoin {

namespace {

/// Assigns `tuple`'s values of `cols` over `key`; false when any key value
/// is NULL (such a tuple joins with nothing).
bool KeyOf(const RowIdSet& set, size_t tuple,
           const std::vector<RowIdSet::ColumnRef>& cols, Row& key) {
  for (size_t i = 0; i < cols.size(); ++i) {
    const Value& v = set.at(tuple, cols[i]);
    if (v.is_null()) return false;
    key[i] = v;
  }
  return true;
}

/// `tuple`'s row of set.schema(), in place: its base row when the set has
/// one part, else gathered into `gathered`, which the view then borrows.
RowView RowOf(const RowIdSet& set, size_t tuple, Row& gathered) {
  if (set.num_parts() == 1) return set.rows(0)[set.id(tuple, 0)];
  gathered.clear();
  set.GatherInto(tuple, gathered);
  return gathered;
}

}  // namespace

Result<std::vector<TuplePair>> JoinRows(const RowIdSet& left,
                                        const RowIdSet& right,
                                        const std::vector<JoinKey>& keys,
                                        ExprPtr residual) {
  std::vector<RowIdSet::ColumnRef> left_cols;
  std::vector<RowIdSet::ColumnRef> right_cols;
  for (const JoinKey& key : keys) {
    TEXTJOIN_ASSIGN_OR_RETURN(RowIdSet::ColumnRef l,
                              left.Resolve(key.left_ref));
    TEXTJOIN_ASSIGN_OR_RETURN(RowIdSet::ColumnRef r,
                              right.Resolve(key.right_ref));
    left_cols.push_back(l);
    right_cols.push_back(r);
  }
  if (residual != nullptr) {
    TEXTJOIN_RETURN_IF_ERROR(
        residual->Bind(left.schema().Concat(right.schema())));
  }

  // Candidates per left tuple: the right-tuple indices sharing its key, or
  // every right tuple when there are no keys.
  std::unordered_map<Row, std::vector<size_t>, RowHash, RowEq> buckets;
  std::vector<size_t> every_right;
  Row key(keys.size());
  if (keys.empty()) {
    every_right.resize(right.size());
    std::iota(every_right.begin(), every_right.end(), size_t{0});
  } else {
    for (size_t r = 0; r < right.size(); ++r) {
      if (KeyOf(right, r, right_cols, key)) buckets[key].push_back(r);
    }
  }

  // The residual reads the left tuple's row and each candidate's row in
  // place: a one-part input's base row, or, for a multi-part input, its
  // row gathered into a reused buffer (once per left tuple on the left).
  Row left_gathered;
  Row right_gathered;
  std::vector<TuplePair> out;
  for (size_t l = 0; l < left.size(); ++l) {
    const std::vector<size_t>* candidates = &every_right;
    if (!keys.empty()) {
      if (!KeyOf(left, l, left_cols, key)) continue;
      auto it = buckets.find(key);
      if (it == buckets.end()) continue;
      candidates = &it->second;
    }
    RowView left_row;
    if (residual != nullptr && !candidates->empty()) {
      left_row = RowOf(left, l, left_gathered);
    }
    for (size_t r : *candidates) {
      if (residual != nullptr &&
          !ValueIsTrue(residual->Eval(
              SplitRowView(left_row, RowOf(right, r, right_gathered))))) {
        continue;
      }
      out.emplace_back(l, r);
    }
  }
  return out;
}

}  // namespace textjoin
