#ifndef TEXTJOIN_RELATIONAL_JOIN_H_
#define TEXTJOIN_RELATIONAL_JOIN_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "relational/expression.h"
#include "relational/schema.h"
#include "relational/tuple.h"

/// \file
/// The relational join: one function over two row-id sets. The plan
/// executor holds every PrL node's output as a RowIdSet, so the join of
/// two subtrees needs no iterator protocol and copies no row. The foreign
/// joins live in src/core (they need the text source).

namespace textjoin {

/// One equi-join key: a column of the left input equal to a column of the
/// right input.
struct JoinKey {
  std::string left_ref;   ///< Column in the left input.
  std::string right_ref;  ///< Column in the right input.
};

/// Joins `left` with `right` and returns the joined tuples, each written
/// once: left's parts followed by right's (RowIdSet::JoinOf). With `keys`,
/// a right tuple is a candidate for a left tuple when every key pair
/// compares equal (hash join on right-tuple indices); a key holding NULL
/// on either side matches nothing, as `=` does. Without keys, every right
/// tuple is a candidate (nested loop). `residual` (may be null) is bound
/// against left.schema() ++ right.schema() and selects among each left
/// tuple's candidates in one Expr::Select call: the left tuple's row is
/// the batch's fixed piece, and the candidates' rows are the right input's
/// base rows read in place (a one-part input, as every right input the
/// enumerator builds; a table's part also lends the batch its table, whose
/// codes `=` and `!=` may compare) or, for a multi-part input, its rows
/// gathered once per call. A multi-part left tuple's row is gathered once
/// per tuple.
///
/// Tuples come in left-tuple order and, within one left tuple, in
/// right-input order. Fails if a key does not resolve or the residual
/// does not bind.
Result<RowIdSet> JoinRows(const RowIdSet& left, const RowIdSet& right,
                          const std::vector<JoinKey>& keys, ExprPtr residual);

}  // namespace textjoin

#endif  // TEXTJOIN_RELATIONAL_JOIN_H_
