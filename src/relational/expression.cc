#include "relational/expression.h"

#include "common/string_util.h"

namespace textjoin {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

bool ValueIsTrue(const Value& v) {
  if (v.is_null()) return false;
  switch (v.type()) {
    case ValueType::kInt64:
    case ValueType::kDouble:
      return v.NumericValue() != 0.0;
    default:
      return false;
  }
}

Status ColumnRefExpr::Bind(const Schema& schema) {
  TEXTJOIN_ASSIGN_OR_RETURN(index_, schema.Resolve(ref_));
  bound_ = true;
  return Status::OK();
}

ExprOperand::ExprOperand(ExprPtr expr)
    : expr_(std::move(expr)),
      column_(dynamic_cast<const ColumnRefExpr*>(expr_.get())),
      literal_(dynamic_cast<const LiteralExpr*>(expr_.get())) {}

Status ComparisonExpr::Bind(const Schema& schema) {
  TEXTJOIN_RETURN_IF_ERROR(left_.expr().Bind(schema));
  return right_.expr().Bind(schema);
}

Value ComparisonExpr::Eval(const SplitRowView& row) const {
  Value left_local;
  Value right_local;
  const Value& l = left_.Read(row, left_local);
  const Value& r = right_.Read(row, right_local);
  // SQL-style: comparisons involving NULL are false (not unknown-propagating
  // three-valued logic; adequate for conjunctive queries).
  if (l.is_null() || r.is_null()) return Value::Int(0);
  const int c = l.Compare(r);
  bool result = false;
  switch (op_) {
    case CompareOp::kEq:
      result = c == 0;
      break;
    case CompareOp::kNe:
      result = c != 0;
      break;
    case CompareOp::kLt:
      result = c < 0;
      break;
    case CompareOp::kLe:
      result = c <= 0;
      break;
    case CompareOp::kGt:
      result = c > 0;
      break;
    case CompareOp::kGe:
      result = c >= 0;
      break;
  }
  return Value::Int(result ? 1 : 0);
}

std::string ComparisonExpr::ToString() const {
  return left().ToString() + " " + CompareOpName(op_) + " " +
         right().ToString();
}

Status LogicalExpr::Bind(const Schema& schema) {
  for (const ExprPtr& child : children_) {
    TEXTJOIN_RETURN_IF_ERROR(child->Bind(schema));
  }
  return Status::OK();
}

Value LogicalExpr::Eval(const SplitRowView& row) const {
  switch (op_) {
    case LogicalOp::kAnd:
      for (const ExprPtr& child : children_) {
        if (!ValueIsTrue(child->Eval(row))) return Value::Int(0);
      }
      return Value::Int(1);
    case LogicalOp::kOr:
      for (const ExprPtr& child : children_) {
        if (ValueIsTrue(child->Eval(row))) return Value::Int(1);
      }
      return Value::Int(0);
    case LogicalOp::kNot:
      return Value::Int(ValueIsTrue(children_[0]->Eval(row)) ? 0 : 1);
  }
  TEXTJOIN_UNREACHABLE("bad LogicalOp");
}

std::string LogicalExpr::ToString() const {
  if (op_ == LogicalOp::kNot) {
    return "NOT (" + children_[0]->ToString() + ")";
  }
  const char* sep = op_ == LogicalOp::kAnd ? " AND " : " OR ";
  std::string out = "(";
  for (size_t i = 0; i < children_.size(); ++i) {
    if (i != 0) out += sep;
    out += children_[i]->ToString();
  }
  out += ")";
  return out;
}

ExprPtr LogicalExpr::Clone() const {
  std::vector<ExprPtr> copies;
  copies.reserve(children_.size());
  for (const ExprPtr& child : children_) copies.push_back(child->Clone());
  return std::make_unique<LogicalExpr>(op_, std::move(copies));
}

Value LikeExpr::Eval(const SplitRowView& row) const {
  Value local;
  const Value& v = input_.Read(row, local);
  if (v.type() != ValueType::kString) return Value::Int(0);
  return Value::Int(LikeMatch(v.AsString(), pattern_) ? 1 : 0);
}

ExprPtr Lit(Value v) { return std::make_unique<LiteralExpr>(std::move(v)); }

ExprPtr Col(std::string ref) {
  return std::make_unique<ColumnRefExpr>(std::move(ref));
}

ExprPtr Cmp(CompareOp op, ExprPtr left, ExprPtr right) {
  return std::make_unique<ComparisonExpr>(op, std::move(left),
                                          std::move(right));
}

ExprPtr Eq(ExprPtr left, ExprPtr right) {
  return Cmp(CompareOp::kEq, std::move(left), std::move(right));
}

ExprPtr And(std::vector<ExprPtr> children) {
  return std::make_unique<LogicalExpr>(LogicalOp::kAnd, std::move(children));
}

ExprPtr Or(std::vector<ExprPtr> children) {
  return std::make_unique<LogicalExpr>(LogicalOp::kOr, std::move(children));
}

ExprPtr Not(ExprPtr child) {
  std::vector<ExprPtr> children;
  children.push_back(std::move(child));
  return std::make_unique<LogicalExpr>(LogicalOp::kNot, std::move(children));
}

ExprPtr Like(ExprPtr input, std::string pattern) {
  return std::make_unique<LikeExpr>(std::move(input), std::move(pattern));
}

}  // namespace textjoin
