#ifndef TEXTJOIN_RELATIONAL_EXPRESSION_H_
#define TEXTJOIN_RELATIONAL_EXPRESSION_H_

#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "relational/schema.h"
#include "relational/tuple.h"

/// \file
/// Scalar expression AST and evaluator.
///
/// Expressions are built unbound (column references by name), then Bind()
/// resolves references against a schema. After a successful Bind, Eval is
/// infallible: comparisons are total across types (see Value::Compare) and
/// string functions return false on non-string inputs, which mirrors SQL's
/// permissive string matching semantics the paper relies on for RTP.
///
/// Eval reads its row in place: comparisons and LIKE read a column or a
/// literal operand by reference, and the row may come in two pieces
/// (SplitRowView), so a relational join evaluates its residual on the
/// left tuple's row and the candidate's base row without copying either.

namespace textjoin {

/// Comparison operators for binary predicates.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

/// Returns the SQL spelling of `op` ("=", "!=", "<", "<=", ">", ">=").
const char* CompareOpName(CompareOp op);

/// Base class for all scalar expressions.
class Expr {
 public:
  virtual ~Expr() = default;

  /// Resolves column references against `schema`. Must be called (and
  /// succeed) before Eval.
  virtual Status Bind(const Schema& schema) = 0;

  /// Evaluates over a row matching the bound schema, read in place. The
  /// row may come in two pieces, left ++ right (a join's two inputs); a
  /// Row or a RowView converts to the one-piece SplitRowView implicitly,
  /// so scan filters, joins and the reference executor share this one
  /// entry point. The view is taken by reference: at four words it would
  /// be copied through the stack on every call, which doubled the cost of
  /// evaluating a join residual.
  virtual Value Eval(const SplitRowView& row) const = 0;

  /// Renders SQL-ish text for debugging and EXPLAIN output.
  virtual std::string ToString() const = 0;

  /// Deep copy (unbound or bound — binding state is preserved).
  virtual std::unique_ptr<Expr> Clone() const = 0;

  /// Appends every column reference in the subtree to `out` (used by the
  /// optimizer to classify predicates by the relations they touch).
  virtual void CollectColumns(std::vector<std::string>& out) const = 0;
};

using ExprPtr = std::unique_ptr<Expr>;

/// Interprets `v` as a predicate result: non-null and numerically non-zero.
bool ValueIsTrue(const Value& v);

/// A constant.
class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value value) : value_(std::move(value)) {}

  Status Bind(const Schema&) override { return Status::OK(); }
  Value Eval(const SplitRowView&) const override { return value_; }
  std::string ToString() const override { return value_.ToString(); }
  ExprPtr Clone() const override {
    return std::make_unique<LiteralExpr>(value_);
  }
  void CollectColumns(std::vector<std::string>&) const override {}

  const Value& value() const { return value_; }

 private:
  Value value_;
};

/// A reference to a column, by (possibly qualified) name.
class ColumnRefExpr final : public Expr {
 public:
  explicit ColumnRefExpr(std::string ref) : ref_(std::move(ref)) {}

  Status Bind(const Schema& schema) override;
  Value Eval(const SplitRowView& row) const override { return Read(row); }
  std::string ToString() const override { return ref_; }
  ExprPtr Clone() const override {
    auto copy = std::make_unique<ColumnRefExpr>(ref_);
    copy->bound_ = bound_;
    copy->index_ = index_;
    return copy;
  }
  void CollectColumns(std::vector<std::string>& out) const override {
    out.push_back(ref_);
  }

  const std::string& ref() const { return ref_; }

  /// The resolved column index. Requires a successful Bind.
  size_t index() const {
    TEXTJOIN_CHECK(bound_, "ColumnRef '%s' index() before Bind", ref_.c_str());
    return index_;
  }

  /// The column's value in `row`, by reference. Requires a successful Bind
  /// and a row of the bound schema's width.
  const Value& Read(const SplitRowView& row) const {
    TEXTJOIN_CHECK(bound_, "ColumnRef '%s' evaluated before Bind",
                   ref_.c_str());
    TEXTJOIN_CHECK(index_ < row.size(), "ColumnRef '%s' index out of range",
                   ref_.c_str());
    return row[index_];
  }

 private:
  std::string ref_;
  bool bound_ = false;
  size_t index_ = 0;
};

/// An operand of a comparison or LIKE. A column or a literal is read by
/// reference, in place; any other expression is evaluated into a local of
/// the caller. Which of the three it is is decided once, at construction.
class ExprOperand {
 public:
  explicit ExprOperand(ExprPtr expr);

  Expr& expr() { return *expr_; }
  const Expr& expr() const { return *expr_; }

  /// The operand's value over `row`: a reference into `row` or to the
  /// literal, or to `local` after evaluating into it.
  const Value& Read(const SplitRowView& row, Value& local) const {
    if (column_ != nullptr) return column_->Read(row);
    if (literal_ != nullptr) return literal_->value();
    local = expr_->Eval(row);
    return local;
  }

 private:
  ExprPtr expr_;
  const ColumnRefExpr* column_ = nullptr;  ///< expr_ when a column.
  const LiteralExpr* literal_ = nullptr;   ///< expr_ when a literal.
};

/// Binary comparison of two sub-expressions.
class ComparisonExpr final : public Expr {
 public:
  ComparisonExpr(CompareOp op, ExprPtr left, ExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}

  Status Bind(const Schema& schema) override;
  Value Eval(const SplitRowView& row) const override;
  std::string ToString() const override;
  ExprPtr Clone() const override {
    return std::make_unique<ComparisonExpr>(op_, left().Clone(),
                                            right().Clone());
  }
  void CollectColumns(std::vector<std::string>& out) const override {
    left().CollectColumns(out);
    right().CollectColumns(out);
  }

  CompareOp op() const { return op_; }
  const Expr& left() const { return left_.expr(); }
  const Expr& right() const { return right_.expr(); }

 private:
  CompareOp op_;
  ExprOperand left_;
  ExprOperand right_;
};

/// N-ary conjunction / disjunction, and unary negation.
enum class LogicalOp { kAnd, kOr, kNot };

class LogicalExpr final : public Expr {
 public:
  LogicalExpr(LogicalOp op, std::vector<ExprPtr> children)
      : op_(op), children_(std::move(children)) {
    TEXTJOIN_CHECK(op_ != LogicalOp::kNot || children_.size() == 1,
                   "NOT takes exactly one child");
    TEXTJOIN_CHECK(!children_.empty(), "logical expr needs children");
  }

  Status Bind(const Schema& schema) override;
  Value Eval(const SplitRowView& row) const override;
  std::string ToString() const override;
  ExprPtr Clone() const override;
  void CollectColumns(std::vector<std::string>& out) const override {
    for (const ExprPtr& child : children_) child->CollectColumns(out);
  }

  LogicalOp op() const { return op_; }
  const std::vector<ExprPtr>& children() const { return children_; }

 private:
  LogicalOp op_;
  std::vector<ExprPtr> children_;
};

/// SQL LIKE: `expr LIKE 'pattern'` with % and _ wildcards.
class LikeExpr final : public Expr {
 public:
  LikeExpr(ExprPtr input, std::string pattern)
      : input_(std::move(input)), pattern_(std::move(pattern)) {}

  Status Bind(const Schema& schema) override {
    return input_.expr().Bind(schema);
  }
  Value Eval(const SplitRowView& row) const override;
  std::string ToString() const override {
    return input_.expr().ToString() + " LIKE '" + pattern_ + "'";
  }
  ExprPtr Clone() const override {
    return std::make_unique<LikeExpr>(input_.expr().Clone(), pattern_);
  }
  void CollectColumns(std::vector<std::string>& out) const override {
    input_.expr().CollectColumns(out);
  }

 private:
  ExprOperand input_;
  std::string pattern_;
};

/// Convenience factories, used heavily by tests and query builders.
ExprPtr Lit(Value v);
ExprPtr Col(std::string ref);
ExprPtr Cmp(CompareOp op, ExprPtr left, ExprPtr right);
ExprPtr Eq(ExprPtr left, ExprPtr right);
ExprPtr And(std::vector<ExprPtr> children);
ExprPtr Or(std::vector<ExprPtr> children);
ExprPtr Not(ExprPtr child);
ExprPtr Like(ExprPtr input, std::string pattern);

}  // namespace textjoin

#endif  // TEXTJOIN_RELATIONAL_EXPRESSION_H_
