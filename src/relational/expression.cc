#include "relational/expression.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <numeric>

#include "common/string_util.h"
#include "relational/table.h"

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

namespace {

/// A predicate result: non-null and numerically non-zero.
bool ValueIsTrue(const Value& v) {
  switch (v.type()) {
    case ValueType::kInt64:
    case ValueType::kDouble:
      return v.NumericValue() != 0.0;
    default:
      return false;
  }
}

/// Keeps, in order, the candidates of `selection` that `keep` holds for.
template <typename Keep>
void Narrow(Selection& selection, Keep keep) {
  size_t kept = 0;
  for (size_t c : selection) {
    if (keep(c)) selection[kept++] = c;
  }
  selection.resize(kept);
}

/// Removes `dropped`, a subset of `selection`, from `selection`; both
/// strictly ascending.
void Subtract(Selection& selection, const Selection& dropped) {
  size_t next = 0;
  Narrow(selection, [&](size_t c) {
    if (next < dropped.size() && dropped[next] == c) {
      ++next;
      return false;
    }
    return true;
  });
}

/// The three-way results each CompareOp (=, !=, <, <=, >, >=, in enum
/// order) holds for, as a bit mask indexed by the result's sign plus one
/// (bit 0: less, bit 1: equal, bit 2: greater).
constexpr unsigned kAcceptedSigns[] = {0b010, 0b101, 0b001,
                                       0b011, 0b100, 0b110};

/// Narrows `selection` by `=` (`equal`) or `!=` on the dictionary codes of
/// the batch's table, when one operand is a string the same for every
/// candidate and the other a coded column of the candidates' rows: the
/// string is looked up once, and each candidate compares one code. A NULL
/// cell's code equals no string's, and a string absent from the dictionary
/// has a code no row holds, so this keeps what comparing the values keeps.
/// Returns false, leaving `selection` alone, when the operands are not of
/// that form.
bool SelectByCode(const RowBatch& batch, ExprOperand::Resolved a,
                  ExprOperand::Resolved b, bool equal, Selection& selection) {
  if (batch.table == nullptr || (a.value == nullptr) == (b.value == nullptr)) {
    return false;
  }
  const ExprOperand::Resolved& fixed = a.value != nullptr ? a : b;
  const ExprOperand::Resolved& column = a.value != nullptr ? b : a;
  if (fixed.value->type() != ValueType::kString) return false;
  const std::vector<uint32_t>* coded = batch.table->codes(column.index);
  if (coded == nullptr) return false;
  const uint32_t* codes = coded->data();
  const size_t* ids = batch.ids;
  const uint32_t code =
      batch.table->CodeOf(column.index, fixed.value->AsString());
  if (equal) {
    Narrow(selection, [&](size_t c) {
      return codes[ids == nullptr ? c : ids[c]] == code;
    });
  } else {
    Narrow(selection, [&](size_t c) {
      const uint32_t k = codes[ids == nullptr ? c : ids[c]];
      return k != code && k != Table::kNullCode;
    });
  }
  return true;
}

}  // namespace

Result<std::vector<size_t>> SelectRows(const Schema& schema,
                                       const std::vector<Row>& rows,
                                       const std::vector<ExprPtr>& predicates) {
  std::vector<ExprPtr> bound;
  bound.reserve(predicates.size());
  for (const ExprPtr& predicate : predicates) {
    bound.push_back(predicate->Clone());
    TEXTJOIN_RETURN_IF_ERROR(bound.back()->Bind(schema));
  }
  Selection selection(rows.size());
  std::iota(selection.begin(), selection.end(), size_t{0});
  RowBatch batch;
  batch.rows = rows.data();
  for (const ExprPtr& predicate : bound) {
    if (selection.empty()) break;
    predicate->Select(batch, selection);
  }
  return selection;
}

void LiteralExpr::Select(const RowBatch&, Selection& selection) const {
  if (!ValueIsTrue(value_)) selection.clear();
}

Status ColumnRefExpr::Bind(const Schema& schema) {
  TEXTJOIN_ASSIGN_OR_RETURN(index_, schema.Resolve(ref_));
  bound_ = true;
  return Status::OK();
}

void ColumnRefExpr::Select(const RowBatch& batch,
                           Selection& selection) const {
  const size_t column = CandidateColumn(batch);
  if (column == SIZE_MAX) {
    if (!ValueIsTrue(batch.fixed[index_])) selection.clear();
    return;
  }
  Narrow(selection,
         [&](size_t c) { return ValueIsTrue(Read(batch, c, column)); });
}

ExprOperand::ExprOperand(ExprPtr expr)
    : expr_(std::move(expr)),
      column_(dynamic_cast<const ColumnRefExpr*>(expr_.get())),
      literal_(dynamic_cast<const LiteralExpr*>(expr_.get())) {
  TEXTJOIN_CHECK(column_ != nullptr || literal_ != nullptr,
                 "operand '%s' is neither a column nor a literal",
                 expr_->ToString().c_str());
}

ExprOperand::Resolved ExprOperand::Resolve(const RowBatch& batch) const {
  if (literal_ != nullptr) return {&literal_->value()};
  const size_t column = column_->CandidateColumn(batch);
  if (column == SIZE_MAX) return {&batch.fixed[column_->index()]};
  return {nullptr, column_, column};
}

Status ComparisonExpr::Bind(const Schema& schema) {
  TEXTJOIN_RETURN_IF_ERROR(left_.expr().Bind(schema));
  return right_.expr().Bind(schema);
}

void ComparisonExpr::Select(const RowBatch& batch,
                            Selection& selection) const {
  const ExprOperand::Resolved l = left_.Resolve(batch);
  const ExprOperand::Resolved r = right_.Resolve(batch);
  if ((op_ == CompareOp::kEq || op_ == CompareOp::kNe) &&
      SelectByCode(batch, l, r, op_ == CompareOp::kEq, selection)) {
    return;
  }
  const unsigned accepted = kAcceptedSigns[static_cast<size_t>(op_)];
  // SQL-style: comparisons involving NULL are false (not unknown-propagating
  // three-valued logic; adequate for conjunctive queries).
  const auto holds = [accepted](const Value& a, const Value& b) {
    if (a.is_null() || b.is_null()) return false;
    const int c = a.Compare(b);
    return ((accepted >> ((c > 0) - (c < 0) + 1)) & 1u) != 0;
  };
  if (l.value != nullptr && r.value != nullptr) {  // The same for all.
    if (!holds(*l.value, *r.value)) selection.clear();
    return;
  }
  Narrow(selection, [&](size_t c) {
    return holds(l.Read(batch, c), r.Read(batch, c));
  });
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

void LogicalExpr::Select(const RowBatch& batch, Selection& selection) const {
  switch (op_) {
    case LogicalOp::kAnd:
      for (const ExprPtr& child : children_) {
        if (selection.empty()) return;
        child->Select(batch, selection);
      }
      return;
    case LogicalOp::kOr: {
      // Each child selects among the candidates no earlier child kept, and
      // the kept candidates are merged back into ascending order.
      Selection remaining = selection;
      Selection picked;
      Selection merged;
      selection.clear();
      for (const ExprPtr& child : children_) {
        if (remaining.empty()) break;
        picked = remaining;
        child->Select(batch, picked);
        merged.clear();
        std::set_union(selection.begin(), selection.end(), picked.begin(),
                       picked.end(), std::back_inserter(merged));
        selection.swap(merged);
        Subtract(remaining, picked);
      }
      return;
    }
    case LogicalOp::kNot: {
      Selection held = selection;
      children_[0]->Select(batch, held);
      Subtract(selection, held);
      return;
    }
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

void LikeExpr::Select(const RowBatch& batch, Selection& selection) const {
  const auto matches = [this](const Value& v) {
    return v.type() == ValueType::kString && LikeMatch(v.AsString(), pattern_);
  };
  const ExprOperand::Resolved input = input_.Resolve(batch);
  if (input.value != nullptr) {  // The same for every candidate.
    if (!matches(*input.value)) selection.clear();
    return;
  }
  Narrow(selection,
         [&](size_t c) { return matches(input.Read(batch, c)); });
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
