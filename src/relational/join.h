#ifndef TEXTJOIN_RELATIONAL_JOIN_H_
#define TEXTJOIN_RELATIONAL_JOIN_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "relational/expression.h"
#include "relational/schema.h"
#include "relational/tuple.h"

/// \file
/// The relational join: one function over two materialized inputs. The
/// plan executor materializes every PrL node into rows, so the join of two
/// stored-relation subtrees needs no iterator protocol. The foreign joins
/// live in src/core (they need the text source).

namespace textjoin {

/// One equi-join key: a column of the left input equal to a column of the
/// right input.
struct JoinKey {
  std::string left_ref;   ///< Column in the left input.
  std::string right_ref;  ///< Column in the right input.
};

/// Joins `left` with `right`. With `keys`, a right row is a candidate for
/// a left row when every key pair compares equal (hash join on right-row
/// indices); a key holding NULL on either side matches nothing, as `=`
/// does. Without keys, every right row is a candidate (nested loop).
/// `residual` (may be null) is bound against the concatenated schema and
/// filters each concatenated candidate pair.
///
/// Output rows are the concatenation left ++ right, in left-row order and,
/// within one left row, in right-input order. Fails if a key does not
/// resolve or the residual does not bind.
Result<std::vector<Row>> JoinRows(const Schema& left_schema,
                                  const std::vector<Row>& left,
                                  const Schema& right_schema,
                                  const std::vector<Row>& right,
                                  const std::vector<JoinKey>& keys,
                                  ExprPtr residual);

}  // namespace textjoin

#endif  // TEXTJOIN_RELATIONAL_JOIN_H_
