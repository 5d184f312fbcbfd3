#include "sql/parser.h"

#include <charconv>
#include <cstdint>
#include <optional>

#include "common/string_util.h"
#include "sql/lexer.h"

namespace textjoin {
namespace {

/// Recursive-descent parser over the lexed token stream.
class Parser {
 public:
  Parser(std::vector<SqlToken> tokens, const TextRelationDecl& text)
      : tokens_(std::move(tokens)),
        text_(text),
        text_table_name_(text.alias) {}

  Result<FederatedQuery> Parse() {
    FederatedQuery query;
    query.text = text_;
    TEXTJOIN_RETURN_IF_ERROR(ExpectKeyword("select"));
    if (ConsumeKeyword("distinct")) query.distinct = true;
    TEXTJOIN_RETURN_IF_ERROR(ParseSelectList(query));
    TEXTJOIN_RETURN_IF_ERROR(ExpectKeyword("from"));
    TEXTJOIN_RETURN_IF_ERROR(ParseFromList(query));
    if (ConsumeKeyword("where")) {
      TEXTJOIN_RETURN_IF_ERROR(ParseConjunct(query));
      while (ConsumeKeyword("and")) {
        TEXTJOIN_RETURN_IF_ERROR(ParseConjunct(query));
      }
    }
    if (ConsumeKeyword("group")) {
      TEXTJOIN_RETURN_IF_ERROR(ExpectKeyword("by"));
      TEXTJOIN_ASSIGN_OR_RETURN(std::string first, ParseColumnRef());
      query.group_by.push_back(std::move(first));
      while (ConsumeSymbol(",")) {
        TEXTJOIN_ASSIGN_OR_RETURN(std::string next, ParseColumnRef());
        query.group_by.push_back(std::move(next));
      }
    }
    // Validate the aggregate shape: with aggregates, every plain select
    // item must be a GROUP BY column (and vice versa order is canonical:
    // groups first, then aggregates).
    if (!query.aggregates.empty()) {
      for (const std::string& ref : query.output_columns) {
        bool grouped = false;
        for (const std::string& g : query.group_by) {
          if (EqualsIgnoreCase(g, ref)) grouped = true;
        }
        if (!grouped) {
          return Status::InvalidArgument(
              "select item '" + ref +
              "' must appear in GROUP BY when aggregates are used");
        }
      }
      query.output_columns.clear();  // output = group_by + aggregates
    } else if (!query.group_by.empty()) {
      return Status::InvalidArgument(
          "GROUP BY requires at least one aggregate in the select list");
    }
    if (ConsumeKeyword("order")) {
      TEXTJOIN_RETURN_IF_ERROR(ExpectKeyword("by"));
      TEXTJOIN_ASSIGN_OR_RETURN(std::string first, ParseColumnRef());
      query.order_by.push_back(std::move(first));
      while (ConsumeSymbol(",")) {
        TEXTJOIN_ASSIGN_OR_RETURN(std::string next, ParseColumnRef());
        query.order_by.push_back(std::move(next));
      }
    }
    if (ConsumeKeyword("limit")) {
      if (Peek().kind != SqlTokenKind::kInteger) {
        return Error("expected an integer after LIMIT");
      }
      TEXTJOIN_ASSIGN_OR_RETURN(query.limit, ParseNumber<size_t>());
    }
    if (Peek().kind != SqlTokenKind::kEnd) {
      if (IsKeyword(Peek(), "or")) {
        return Status::Unimplemented(
            "only conjunctive queries are supported (no OR in WHERE)");
      }
      return Error("unexpected trailing input");
    }
    return query;
  }

 private:
  const SqlToken& Peek(size_t ahead = 0) const {
    const size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const SqlToken& Advance() { return tokens_[pos_++]; }

  static bool IsKeyword(const SqlToken& tok, const char* kw) {
    return tok.kind == SqlTokenKind::kIdentifier &&
           EqualsIgnoreCase(tok.text, kw);
  }

  bool ConsumeKeyword(const char* kw) {
    if (IsKeyword(Peek(), kw)) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeSymbol(const char* sym) {
    if (Peek().kind == SqlTokenKind::kSymbol && Peek().text == sym) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Error(const std::string& message) const {
    return Status::InvalidArgument(message + " at offset " +
                                   std::to_string(Peek().offset) + " (near '" +
                                   Peek().text + "')");
  }

  /// Converts the current numeric token to T and consumes it; a value
  /// outside T's range is a parse error.
  template <typename T>
  Result<T> ParseNumber() {
    const std::string& text = Peek().text;
    T value{};
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || end != text.data() + text.size()) {
      return Error("numeric literal is malformed or out of range");
    }
    Advance();
    return value;
  }

  Status ExpectKeyword(const char* kw) {
    if (!ConsumeKeyword(kw)) {
      return Error(std::string("expected '") + kw + "'");
    }
    return Status::OK();
  }

  /// Parses `ident` or `ident.ident` into a column reference string.
  Result<std::string> ParseColumnRef() {
    if (Peek().kind != SqlTokenKind::kIdentifier) {
      return Error("expected a column reference");
    }
    std::string ref = Advance().text;
    if (ConsumeSymbol(".")) {
      if (Peek().kind != SqlTokenKind::kIdentifier) {
        return Error("expected a column name after '.'");
      }
      ref += "." + Advance().text;
    }
    return ref;
  }

  /// One select item: column ref, or count(*)/count(col)/min(col)/max(col).
  Status ParseSelectItem(FederatedQuery& query) {
    if (Peek().kind == SqlTokenKind::kIdentifier &&
        (IsKeyword(Peek(), "count") || IsKeyword(Peek(), "min") ||
         IsKeyword(Peek(), "max") || IsKeyword(Peek(), "sum") ||
         IsKeyword(Peek(), "avg")) &&
        Peek(1).kind == SqlTokenKind::kSymbol && Peek(1).text == "(") {
      AggregateItem item;
      const std::string fn = ToLower(Advance().text);
      ConsumeSymbol("(");
      if (fn == "count" && ConsumeSymbol("*")) {
        item.kind = AggregateItem::Kind::kCountStar;
      } else {
        TEXTJOIN_ASSIGN_OR_RETURN(item.column, ParseColumnRef());
        item.kind = fn == "count" ? AggregateItem::Kind::kCount
                    : fn == "min" ? AggregateItem::Kind::kMin
                    : fn == "max" ? AggregateItem::Kind::kMax
                    : fn == "sum" ? AggregateItem::Kind::kSum
                                  : AggregateItem::Kind::kAvg;
      }
      if (!ConsumeSymbol(")")) {
        return Error("expected ')' after aggregate argument");
      }
      query.aggregates.push_back(std::move(item));
      return Status::OK();
    }
    TEXTJOIN_ASSIGN_OR_RETURN(std::string ref, ParseColumnRef());
    query.output_columns.push_back(std::move(ref));
    return Status::OK();
  }

  Status ParseSelectList(FederatedQuery& query) {
    if (ConsumeSymbol("*")) return Status::OK();
    TEXTJOIN_RETURN_IF_ERROR(ParseSelectItem(query));
    while (ConsumeSymbol(",")) {
      TEXTJOIN_RETURN_IF_ERROR(ParseSelectItem(query));
    }
    return Status::OK();
  }

  Status ParseFromList(FederatedQuery& query) {
    do {
      if (Peek().kind != SqlTokenKind::kIdentifier) {
        return Error("expected a table name in FROM");
      }
      std::string table = Advance().text;
      std::string alias = table;
      (void)ConsumeKeyword("as");
      if (Peek().kind == SqlTokenKind::kIdentifier &&
          !IsKeyword(Peek(), "where") && !IsKeyword(Peek(), "and") &&
          !IsKeyword(Peek(), "order") && !IsKeyword(Peek(), "limit") &&
          !IsKeyword(Peek(), "group")) {
        // An identifier right after the table is an alias — but only when
        // the next-next token suggests the FROM list continues correctly.
        alias = Advance().text;
      }
      if (!text_table_name_.empty() &&
          EqualsIgnoreCase(table, text_table_name_)) {
        if (query.has_text_relation) {
          return Error("text relation listed twice in FROM");
        }
        query.has_text_relation = true;
        query.text.alias = alias;  // allow aliasing the text relation
        text_.alias = alias;       // IN targets resolve against the alias
      } else {
        query.relations.push_back(RelationRef{table, alias});
      }
    } while (ConsumeSymbol(","));
    return Status::OK();
  }

  /// A primary operand: column ref or literal.
  struct Operand {
    std::optional<std::string> column;
    std::optional<Value> literal;
  };

  Result<Operand> ParseOperand() {
    Operand op;
    switch (Peek().kind) {
      case SqlTokenKind::kIdentifier: {
        TEXTJOIN_ASSIGN_OR_RETURN(std::string ref, ParseColumnRef());
        op.column = std::move(ref);
        return op;
      }
      case SqlTokenKind::kString:
        op.literal = Value::Str(Advance().text);
        return op;
      case SqlTokenKind::kInteger: {
        TEXTJOIN_ASSIGN_OR_RETURN(int64_t v, ParseNumber<int64_t>());
        op.literal = Value::Int(v);
        return op;
      }
      case SqlTokenKind::kFloat: {
        TEXTJOIN_ASSIGN_OR_RETURN(double v, ParseNumber<double>());
        op.literal = Value::Real(v);
        return op;
      }
      default:
        return Error("expected a column or literal");
    }
  }

  ExprPtr OperandExpr(const Operand& op) const {
    if (op.column.has_value()) return Col(*op.column);
    return Lit(*op.literal);
  }

  /// True if `ref` is a column of the text relation ("mercury.title").
  bool IsTextField(const std::string& ref, std::string* field) const {
    const size_t dot = ref.find('.');
    if (dot == std::string::npos) return false;
    if (!EqualsIgnoreCase(ref.substr(0, dot),
                          text_.alias.empty() ? "" : text_.alias)) {
      return false;
    }
    *field = ref.substr(dot + 1);
    return true;
  }

  Status ParseConjunct(FederatedQuery& query) {
    TEXTJOIN_ASSIGN_OR_RETURN(Operand lhs, ParseOperand());

    if (ConsumeKeyword("in")) {
      // 'term' IN text.field (selection) or column IN text.field (join).
      TEXTJOIN_ASSIGN_OR_RETURN(std::string target, ParseColumnRef());
      std::string field;
      if (!query.has_text_relation || !IsTextField(target, &field)) {
        return Status::InvalidArgument(
            "IN predicate target '" + target +
            "' is not a field of the text relation '" + text_.alias + "'");
      }
      if (!query.text.HasField(field)) {
        return Status::NotFound("text relation has no field '" + field + "'");
      }
      if (lhs.literal.has_value()) {
        if (lhs.literal->type() != ValueType::kString) {
          return Status::InvalidArgument(
              "text selection term must be a string");
        }
        query.text_selections.push_back(
            TextSelection{lhs.literal->AsString(), field});
      } else {
        query.text_joins.push_back(TextJoinPredicate{*lhs.column, field});
      }
      return Status::OK();
    }

    if (ConsumeKeyword("like")) {
      if (Peek().kind != SqlTokenKind::kString) {
        return Error("expected a pattern string after LIKE");
      }
      if (!lhs.column.has_value()) {
        return Error("LIKE requires a column on the left");
      }
      query.relational_predicates.push_back(
          Like(Col(*lhs.column), Advance().text));
      return Status::OK();
    }

    // Comparison operator.
    CompareOp op;
    if (ConsumeSymbol("=")) {
      op = CompareOp::kEq;
    } else if (ConsumeSymbol("!=")) {
      op = CompareOp::kNe;
    } else if (ConsumeSymbol("<=")) {
      op = CompareOp::kLe;
    } else if (ConsumeSymbol(">=")) {
      op = CompareOp::kGe;
    } else if (ConsumeSymbol("<")) {
      op = CompareOp::kLt;
    } else if (ConsumeSymbol(">")) {
      op = CompareOp::kGt;
    } else {
      return Error("expected a comparison operator, IN, or LIKE");
    }
    TEXTJOIN_ASSIGN_OR_RETURN(Operand rhs, ParseOperand());
    query.relational_predicates.push_back(
        Cmp(op, OperandExpr(lhs), OperandExpr(rhs)));
    return Status::OK();
  }

  std::vector<SqlToken> tokens_;
  size_t pos_ = 0;
  TextRelationDecl text_;
  std::string text_table_name_;  ///< The declared name (FROM matches this).
};

}  // namespace

Result<FederatedQuery> ParseQuery(const std::string& sql,
                                  const TextRelationDecl& text) {
  TEXTJOIN_ASSIGN_OR_RETURN(std::vector<SqlToken> tokens, LexSql(sql));
  return Parser(std::move(tokens), text).Parse();
}

}  // namespace textjoin
