#include "tests/support/reference_expression.h"

#include <typeinfo>

#include "common/check.h"
#include "common/string_util.h"

namespace textjoin {

namespace {

int TypeRank(ValueType t) {
  switch (t) {
    case ValueType::kNull:
      return 0;
    case ValueType::kInt64:
    case ValueType::kDouble:
      return 1;
    case ValueType::kString:
      return 2;
  }
  return 3;
}

bool Truthy(const Value& v) {
  return (v.type() == ValueType::kInt64 || v.type() == ValueType::kDouble) &&
         v.NumericValue() != 0.0;
}

Value Bool(bool b) { return Value::Int(b ? 1 : 0); }

}  // namespace

int ReferenceCompare(const Value& a, const Value& b) {
  if (TypeRank(a.type()) != TypeRank(b.type()) || a.is_null()) {
    return TypeRank(a.type()) - TypeRank(b.type());
  }
  if (a.type() == ValueType::kString) {
    return a.AsString().compare(b.AsString());
  }
  const double x = a.NumericValue();
  const double y = b.NumericValue();
  return x < y ? -1 : (x > y ? 1 : 0);
}

namespace {

/// A comparison's or LIKE's operand over `row`: a column or a literal read
/// by reference, as the per-row evaluator read them; any other expression
/// evaluated into `local`.
const Value& Operand(const Expr& expr, RowView row, Value& local) {
  if (typeid(expr) == typeid(ColumnRefExpr)) {
    const auto& column = static_cast<const ColumnRefExpr&>(expr);
    TEXTJOIN_CHECK(column.index() < row.size(),
                   "ColumnRef '%s' index out of range", column.ref().c_str());
    return row[column.index()];
  }
  if (typeid(expr) == typeid(LiteralExpr)) {
    return static_cast<const LiteralExpr&>(expr).value();
  }
  local = ReferenceEval(expr, row);
  return local;
}

}  // namespace

Value ReferenceEval(const Expr& expr, RowView row) {
  Value left_local;
  Value right_local;
  if (typeid(expr) == typeid(ComparisonExpr)) {
    const auto& cmp = static_cast<const ComparisonExpr&>(expr);
    const Value& l = Operand(cmp.left(), row, left_local);
    const Value& r = Operand(cmp.right(), row, right_local);
    if (l.is_null() || r.is_null()) return Bool(false);
    const int c = ReferenceCompare(l, r);
    switch (cmp.op()) {
      case CompareOp::kEq:
        return Bool(c == 0);
      case CompareOp::kNe:
        return Bool(c != 0);
      case CompareOp::kLt:
        return Bool(c < 0);
      case CompareOp::kLe:
        return Bool(c <= 0);
      case CompareOp::kGt:
        return Bool(c > 0);
      case CompareOp::kGe:
        return Bool(c >= 0);
    }
  }
  if (typeid(expr) == typeid(LogicalExpr)) {
    const auto& logical = static_cast<const LogicalExpr&>(expr);
    switch (logical.op()) {
      case LogicalOp::kAnd:
        for (const ExprPtr& child : logical.children()) {
          if (!ReferenceHolds(*child, row)) return Bool(false);
        }
        return Bool(true);
      case LogicalOp::kOr:
        for (const ExprPtr& child : logical.children()) {
          if (ReferenceHolds(*child, row)) return Bool(true);
        }
        return Bool(false);
      case LogicalOp::kNot:
        return Bool(!ReferenceHolds(*logical.children()[0], row));
    }
  }
  if (typeid(expr) == typeid(LikeExpr)) {
    const auto& like = static_cast<const LikeExpr&>(expr);
    const Value& v = Operand(like.input(), row, left_local);
    return Bool(v.type() == ValueType::kString &&
                LikeMatch(v.AsString(), like.pattern()));
  }
  TEXTJOIN_CHECK(typeid(expr) == typeid(ColumnRefExpr) ||
                     typeid(expr) == typeid(LiteralExpr),
                 "unknown expression node");
  return Operand(expr, row, left_local);
}

bool ReferenceHolds(const Expr& expr, RowView row) {
  return Truthy(ReferenceEval(expr, row));
}

}  // namespace textjoin
