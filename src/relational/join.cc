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

/// Points `batch`'s candidates at `set`'s tuples, candidate t being tuple
/// t's row: a one-part set's base rows are read in place through its ids,
/// with its table's codes when the part is a table's; a multi-part set's
/// rows are gathered into `gathered` once.
void PointAtTuples(const RowIdSet& set, RowBatch& batch,
                   std::vector<Row>& gathered) {
  if (set.num_parts() == 1) {
    batch.rows = set.rows(0).data();
    batch.ids = set.ids().data();
    batch.table = set.table(0);
    return;
  }
  gathered.resize(set.size());
  for (size_t t = 0; t < set.size(); ++t) set.GatherInto(t, gathered[t]);
  batch.rows = gathered.data();
}

}  // namespace

Result<RowIdSet> JoinRows(const RowIdSet& left, const RowIdSet& right,
                          const std::vector<JoinKey>& keys, ExprPtr residual) {
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
  RowIdSet out = RowIdSet::JoinOf(left, right);
  if (residual != nullptr) {
    TEXTJOIN_RETURN_IF_ERROR(residual->Bind(out.schema()));
  }

  // Candidates per left tuple: the right-tuple indices sharing its key, or
  // every right tuple when there are no keys; ascending either way.
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

  // The residual selects among each left tuple's candidates in one call,
  // with the left tuple's row as the batch's fixed piece.
  RowBatch batch;
  std::vector<Row> right_gathered;
  if (residual != nullptr) PointAtTuples(right, batch, right_gathered);
  Row left_gathered;
  Selection selection;
  for (size_t l = 0; l < left.size(); ++l) {
    const std::vector<size_t>* candidates = &every_right;
    if (!keys.empty()) {
      if (!KeyOf(left, l, left_cols, key)) continue;
      auto it = buckets.find(key);
      if (it == buckets.end()) continue;
      candidates = &it->second;
    }
    if (candidates->empty()) continue;
    if (residual == nullptr) {
      out.AppendJoined(left, l, right, *candidates);
      continue;
    }
    batch.fixed = RowOf(left, l, left_gathered);
    selection.assign(candidates->begin(), candidates->end());
    residual->Select(batch, selection);
    out.AppendJoined(left, l, right, selection);
  }
  return out;
}

}  // namespace textjoin
