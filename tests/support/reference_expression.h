#ifndef TEXTJOIN_TESTS_SUPPORT_REFERENCE_EXPRESSION_H_
#define TEXTJOIN_TESTS_SUPPORT_REFERENCE_EXPRESSION_H_

#include "common/value.h"
#include "relational/expression.h"
#include "relational/tuple.h"

/// \file
/// The per-row reference form of predicate evaluation (test support, not
/// part of the engine): a bound expression evaluated over one materialized
/// row, node by node, as the engine did before predicates selected batches
/// (column and literal operands read by reference). Comparisons order
/// values by their own copy of the total order Value documents (NULL <
/// numbers < strings, numbers by numeric value, strings bytewise), NULL
/// compares false, LIKE on a non-string is false, and a predicate holds
/// where it evaluates to a non-NULL, non-zero number. Expr::Select must
/// keep exactly the candidates this holds for; the property tests hold it
/// to that, and bench_micro times it as the scratch-row baseline.

namespace textjoin {

/// `expr`'s value over `row`, a row of the schema `expr` is bound to.
Value ReferenceEval(const Expr& expr, RowView row);

/// Whether `expr` holds over `row`.
bool ReferenceHolds(const Expr& expr, RowView row);

/// Three-way comparison in the order Value documents, computed without
/// Value::Compare.
int ReferenceCompare(const Value& a, const Value& b);

}  // namespace textjoin

#endif  // TEXTJOIN_TESTS_SUPPORT_REFERENCE_EXPRESSION_H_
