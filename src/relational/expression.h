#ifndef TEXTJOIN_RELATIONAL_EXPRESSION_H_
#define TEXTJOIN_RELATIONAL_EXPRESSION_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/value.h"
#include "relational/schema.h"
#include "relational/tuple.h"

/// \file
/// Scalar predicate AST and its batch evaluator.
///
/// Expressions are built unbound (column references by name), then Bind()
/// resolves references against a schema. After a successful Bind, Select
/// is infallible: comparisons are total across types (see Value::Compare)
/// and string functions return false on non-string inputs, which mirrors
/// SQL's permissive string matching semantics the paper relies on for RTP.
///
/// Select narrows a selection of candidate rows (a RowBatch) per call, not
/// one row: a comparison or LIKE resolves its operands once per call (a
/// literal or a column of the batch's fixed piece is read once, a column
/// of the candidates' rows by reference per candidate), and AND, OR and
/// NOT combine their children's selections. So a scan filters its table
/// and a relational join each left tuple's candidates in one call each.
/// When the batch lends its candidates' table (a scan's, or a join's
/// right input's), `=` and `!=` between a string read once and a coded
/// column compare the table's dictionary codes instead of the strings
/// (DESIGN.md §14), with the same result.

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
  /// succeed) before Select.
  virtual Status Bind(const Schema& schema) = 0;

  /// Narrows `selection`, strictly ascending candidates of `batch` whose
  /// rows match the bound schema, to those the predicate holds for, in
  /// order. A predicate holds where it evaluates to a non-NULL, non-zero
  /// number; a comparison involving NULL does not hold.
  virtual void Select(const RowBatch& batch, Selection& selection) const = 0;

  /// Renders SQL-ish text for debugging and EXPLAIN output.
  virtual std::string ToString() const = 0;

  /// Deep copy (unbound or bound — binding state is preserved).
  virtual std::unique_ptr<Expr> Clone() const = 0;

  /// Appends every column reference in the subtree to `out` (used by the
  /// optimizer to classify predicates by the relations they touch).
  virtual void CollectColumns(std::vector<std::string>& out) const = 0;
};

using ExprPtr = std::unique_ptr<Expr>;

/// The indices of `rows` (each of `schema`) every predicate holds for,
/// ascending. Binds each predicate once, then narrows the selection of
/// every row predicate by predicate. Fails if a predicate does not bind.
Result<std::vector<size_t>> SelectRows(const Schema& schema,
                                       const std::vector<Row>& rows,
                                       const std::vector<ExprPtr>& predicates);
/// SelectRows over `table`'s rows that lends the table to the batch, so
/// `=` and `!=` between a string and a coded column compare codes (a
/// scan's filters).
Result<std::vector<size_t>> SelectRows(const Schema& schema,
                                       const Table& table,
                                       const std::vector<ExprPtr>& predicates);

/// A constant.
class LiteralExpr final : public Expr {
 public:
  explicit LiteralExpr(Value value) : value_(std::move(value)) {}

  Status Bind(const Schema&) override { return Status::OK(); }
  void Select(const RowBatch& batch, Selection& selection) const override;
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
  void Select(const RowBatch& batch, Selection& selection) const override;
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

  /// The column's index within a candidate's base row of `batch`, or
  /// SIZE_MAX when the column lies in the batch's fixed piece. Requires a
  /// successful Bind.
  size_t CandidateColumn(const RowBatch& batch) const {
    TEXTJOIN_CHECK(bound_, "ColumnRef '%s' evaluated before Bind",
                   ref_.c_str());
    return index_ < batch.fixed.size() ? SIZE_MAX
                                       : index_ - batch.fixed.size();
  }

  /// Column `column` (a CandidateColumn) of candidate c's base row, by
  /// reference. Requires a row of the bound schema's width.
  const Value& Read(const RowBatch& batch, size_t c, size_t column) const {
    const Row& row = batch.candidate(c);
    TEXTJOIN_CHECK(column < row.size(), "ColumnRef '%s' index out of range",
                   ref_.c_str());
    return row[column];
  }

 private:
  std::string ref_;
  bool bound_ = false;
  size_t index_ = 0;
};

/// An operand of a comparison or LIKE: a column or a literal, the only
/// operands the SQL front end builds; constructing one over any other
/// expression is a CHECK failure. Select resolves it once per call.
class ExprOperand {
 public:
  explicit ExprOperand(ExprPtr expr);

  Expr& expr() { return *expr_; }
  const Expr& expr() const { return *expr_; }

  /// The operand resolved against one batch: `value` is non-null when it
  /// is the same for every candidate (a literal, or a column of the fixed
  /// piece), read once; otherwise it is a column of each candidate's row.
  struct Resolved {
    const Value* value = nullptr;
    const ColumnRefExpr* column = nullptr;
    size_t index = 0;  ///< Within a candidate's base row.

    /// Candidate c's value, by reference.
    const Value& Read(const RowBatch& batch, size_t c) const {
      return value != nullptr ? *value : column->Read(batch, c, index);
    }
  };
  Resolved Resolve(const RowBatch& batch) const;

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
  void Select(const RowBatch& batch, Selection& selection) const override;
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
  void Select(const RowBatch& batch, Selection& selection) const override;
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
  void Select(const RowBatch& batch, Selection& selection) const override;
  std::string ToString() const override {
    return input_.expr().ToString() + " LIKE '" + pattern_ + "'";
  }
  ExprPtr Clone() const override {
    return std::make_unique<LikeExpr>(input_.expr().Clone(), pattern_);
  }
  void CollectColumns(std::vector<std::string>& out) const override {
    input_.expr().CollectColumns(out);
  }

  const Expr& input() const { return input_.expr(); }
  const std::string& pattern() const { return pattern_; }

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
