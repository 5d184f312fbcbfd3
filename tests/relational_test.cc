#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "relational/catalog.h"
#include "relational/expression.h"
#include "relational/join.h"
#include "relational/table.h"
#include "relational/table_stats.h"
#include "tests/test_util.h"

namespace textjoin {
namespace {

using textjoin::testing::MakeStudentTable;

// ---------------------------------------------------------------- Schema

TEST(SchemaTest, ResolveQualifiedAndBare) {
  Schema schema;
  schema.AddColumn(Column{"s", "name", ValueType::kString});
  schema.AddColumn(Column{"s", "year", ValueType::kInt64});
  EXPECT_EQ(*schema.Resolve("name"), 0u);
  EXPECT_EQ(*schema.Resolve("s.year"), 1u);
  EXPECT_EQ(*schema.Resolve("S.YEAR"), 1u);  // case-insensitive
}

TEST(SchemaTest, ResolveErrors) {
  Schema schema;
  schema.AddColumn(Column{"a", "x", ValueType::kString});
  schema.AddColumn(Column{"b", "x", ValueType::kString});
  EXPECT_EQ(schema.Resolve("y").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(schema.Resolve("x").status().code(),
            StatusCode::kInvalidArgument);  // ambiguous bare name
  EXPECT_TRUE(schema.Resolve("a.x").ok());
}

TEST(SchemaTest, ConcatAndQualify) {
  Schema a;
  a.AddColumn(Column{"l", "x", ValueType::kString});
  Schema b;
  b.AddColumn(Column{"r", "y", ValueType::kInt64});
  Schema joined = a.Concat(b);
  EXPECT_EQ(joined.num_columns(), 2u);
  EXPECT_EQ(joined.column(1).QualifiedName(), "r.y");
  Schema renamed = joined.WithQualifier("t");
  EXPECT_EQ(renamed.column(0).QualifiedName(), "t.x");
}

// ----------------------------------------------------------------- Table

TEST(TableTest, InsertChecksArityAndTypes) {
  Schema schema;
  schema.AddColumn(Column{"t", "a", ValueType::kString});
  schema.AddColumn(Column{"t", "b", ValueType::kInt64});
  Table table("t", schema);
  EXPECT_TRUE(table.Insert({Value::Str("x"), Value::Int(1)}).ok());
  EXPECT_TRUE(table.Insert({Value::Null(), Value::Null()}).ok());
  EXPECT_EQ(table.Insert({Value::Str("x")}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table.Insert({Value::Int(1), Value::Int(1)}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(TableTest, StringColumnsAreDictionaryCoded) {
  Schema schema;
  schema.AddColumn(Column{"t", "a", ValueType::kString});
  schema.AddColumn(Column{"t", "b", ValueType::kInt64});
  Table table("t", schema);
  ASSERT_NE(table.codes(0), nullptr);
  EXPECT_EQ(table.codes(1), nullptr) << "only STRING columns are coded";
  ASSERT_TRUE(table.Insert({Value::Str("x"), Value::Int(1)}).ok());
  ASSERT_TRUE(table.Insert({Value::Null(), Value::Int(2)}).ok());
  table.InsertUnchecked({Value::Str("X"), Value::Int(3)});
  table.InsertUnchecked({Value::Str("x"), Value::Int(4)});
  ASSERT_NE(table.codes(0), nullptr);
  EXPECT_EQ(*table.codes(0),
            (std::vector<uint32_t>{0, Table::kNullCode, 1, 0}))
      << "codes are case-sensitive, as `=` is";
  EXPECT_EQ(table.CodeOf(0, "X"), 1u);
  EXPECT_EQ(table.CodeOf(0, "y"), Table::kAbsentCode);

  // A non-string cell stops the column being coded; Clear codes it again.
  table.InsertUnchecked({Value::Int(7), Value::Int(5)});
  EXPECT_EQ(table.codes(0), nullptr);
  table.Clear();
  ASSERT_NE(table.codes(0), nullptr);
  EXPECT_EQ(table.CodeOf(0, "x"), Table::kAbsentCode);
  ASSERT_TRUE(table.Insert({Value::Str("y"), Value::Int(1)}).ok());
  EXPECT_EQ(*table.codes(0), std::vector<uint32_t>{0});
  EXPECT_EQ(table.CodeOf(0, "y"), 0u);
}

TEST(TableTest, CountDistinct) {
  auto table = MakeStudentTable();
  // advisor column (index 2) has 2 distinct values; name has 5.
  EXPECT_EQ(table->CountDistinct({2}), 2u);
  EXPECT_EQ(table->CountDistinct({0}), 5u);
  EXPECT_EQ(table->CountDistinct({0, 2}), 5u);
}

// --------------------------------------------------------------- Catalog

TEST(CatalogTest, CreateLookupDuplicate) {
  Catalog catalog;
  Schema schema;
  schema.AddColumn(Column{"t", "a", ValueType::kString});
  ASSERT_TRUE(catalog.CreateTable("t", schema).ok());
  EXPECT_TRUE(catalog.HasTable("T"));  // case-insensitive
  EXPECT_TRUE(catalog.GetTable("t").ok());
  EXPECT_EQ(catalog.CreateTable("T", schema).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog.GetTable("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(catalog.TableNames(), std::vector<std::string>{"t"});
}

// ----------------------------------------------------------- Expressions

class ExprTest : public ::testing::Test {
 protected:
  ExprTest() : table_(MakeStudentTable()) {}

  /// Whether bound `expr` holds for student row `row_index`: Select over
  /// a batch of the table's rows, with that row the one candidate.
  bool HoldsOn(const Expr& expr, size_t row_index) {
    RowBatch batch;
    batch.rows = table_->rows().data();
    Selection selection = {row_index};
    expr.Select(batch, selection);
    return !selection.empty();
  }
  bool HoldsOn(ExprPtr expr, size_t row_index) {
    const Status st = expr->Bind(table_->schema());
    TEXTJOIN_CHECK(st.ok(), "%s", st.ToString().c_str());
    return HoldsOn(*expr, row_index);
  }

  std::unique_ptr<Table> table_;
};

TEST_F(ExprTest, ComparisonOnStrings) {
  // Row 0: Radhika, AI, Garcia, 4.
  EXPECT_TRUE(
      HoldsOn(Eq(Col("student.area"), Lit(Value::Str("AI"))), 0));
  EXPECT_FALSE(
      HoldsOn(Eq(Col("student.area"), Lit(Value::Str("IR"))), 0));
}

TEST_F(ExprTest, ComparisonOperators) {
  EXPECT_TRUE(HoldsOn(
      Cmp(CompareOp::kGt, Col("year"), Lit(Value::Int(3))), 0));
  EXPECT_FALSE(HoldsOn(
      Cmp(CompareOp::kGt, Col("year"), Lit(Value::Int(3))), 2));
  EXPECT_TRUE(HoldsOn(
      Cmp(CompareOp::kLe, Col("year"), Lit(Value::Int(2))), 2));
  EXPECT_TRUE(HoldsOn(
      Cmp(CompareOp::kNe, Col("advisor"), Lit(Value::Str("Garcia"))), 3));
}

TEST_F(ExprTest, NullComparisonsAreFalse) {
  EXPECT_FALSE(HoldsOn(
      Eq(Col("name"), Lit(Value::Null())), 0));
  EXPECT_FALSE(HoldsOn(
      Cmp(CompareOp::kNe, Col("name"), Lit(Value::Null())), 0));
}

TEST_F(ExprTest, LogicalOps) {
  std::vector<ExprPtr> both;
  both.push_back(Eq(Col("area"), Lit(Value::Str("AI"))));
  both.push_back(Cmp(CompareOp::kGt, Col("year"), Lit(Value::Int(3))));
  EXPECT_TRUE(HoldsOn(And(std::move(both)), 0));

  std::vector<ExprPtr> either;
  either.push_back(Eq(Col("area"), Lit(Value::Str("nope"))));
  either.push_back(Eq(Col("advisor"), Lit(Value::Str("Garcia"))));
  EXPECT_TRUE(HoldsOn(Or(std::move(either)), 0));

  EXPECT_FALSE(
      HoldsOn(Not(Eq(Col("area"), Lit(Value::Str("AI")))), 0));
}

TEST_F(ExprTest, LikeExpression) {
  EXPECT_TRUE(HoldsOn(Like(Col("name"), "Rad%"), 0));
  EXPECT_FALSE(HoldsOn(Like(Col("name"), "Rad%"), 1));
  // LIKE on an integer column is false, not an error.
  EXPECT_FALSE(HoldsOn(Like(Col("year"), "4"), 0));
}

TEST_F(ExprTest, SelectNarrowsInOrder) {
  // Rows: 0 Radhika/AI/Garcia/4, 1 Gravano/distributed systems/Garcia/5,
  // 2 Kao/distributed systems/Garcia/2, 3 Smith/AI/Ullman/4,
  // 4 Yan/IR/Ullman/6.
  RowBatch batch;
  batch.rows = table_->rows().data();
  const auto select = [&](ExprPtr expr, Selection selection) {
    EXPECT_TRUE(expr->Bind(table_->schema()).ok());
    expr->Select(batch, selection);
    return selection;
  };
  EXPECT_EQ(select(Eq(Col("advisor"), Lit(Value::Str("Garcia"))),
                   {0, 1, 2, 3, 4}),
            (Selection{0, 1, 2}));
  // Candidates outside the selection are never kept.
  EXPECT_EQ(select(Eq(Col("advisor"), Lit(Value::Str("Garcia"))), {1, 4}),
            (Selection{1}));
  std::vector<ExprPtr> either;
  either.push_back(Cmp(CompareOp::kGt, Col("year"), Lit(Value::Int(4))));
  either.push_back(Eq(Col("area"), Lit(Value::Str("AI"))));
  EXPECT_EQ(select(Or(std::move(either)), {0, 1, 2, 3, 4}),
            (Selection{0, 1, 3, 4}));
  EXPECT_EQ(select(Not(Like(Col("name"), "%a%")), {0, 1, 2, 3, 4}),
            (Selection{3}));
  // A constant comparison keeps all or nothing.
  EXPECT_EQ(select(Eq(Lit(Value::Int(1)), Lit(Value::Real(1.0))), {2, 3}),
            (Selection{2, 3}));
  EXPECT_EQ(select(Eq(Lit(Value::Int(1)), Lit(Value::Null())), {2, 3}),
            Selection{});
}

TEST_F(ExprTest, FixedPieceColumnsAreReadOncePerCall) {
  // A join's batch: the left row is the fixed piece, and the candidates'
  // rows follow it, so "s2.*" columns index past the fixed width.
  const Schema joined =
      table_->schema().Concat(table_->schema().WithQualifier("s2"));
  ExprPtr expr = Cmp(CompareOp::kLt, Col("student.year"), Col("s2.year"));
  ASSERT_TRUE(expr->Bind(joined).ok());
  RowBatch batch;
  batch.fixed = table_->row(0);  // year 4
  batch.rows = table_->rows().data();
  const std::vector<size_t> ids = {4, 3, 1, 1};  // years 6, 4, 5, 5
  batch.ids = ids.data();
  Selection selection = {0, 1, 2, 3};
  expr->Select(batch, selection);
  EXPECT_EQ(selection, (Selection{0, 2, 3}));
}

TEST_F(ExprTest, OperandsMustBeColumnsOrLiterals) {
  EXPECT_DEATH(Eq(Cmp(CompareOp::kGt, Col("year"), Lit(Value::Int(3))),
                  Lit(Value::Int(1))),
               "neither a column nor a literal");
  EXPECT_DEATH(Like(Eq(Col("area"), Lit(Value::Str("AI"))), "%"),
               "neither a column nor a literal");
}

TEST_F(ExprTest, SelectRowsKeepsRowsEveryPredicateHolds) {
  std::vector<ExprPtr> predicates;
  predicates.push_back(Eq(Col("advisor"), Lit(Value::Str("Garcia"))));
  predicates.push_back(Cmp(CompareOp::kGe, Col("year"), Lit(Value::Int(4))));
  auto kept = SelectRows(table_->schema(), table_->rows(), predicates);
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  EXPECT_EQ(*kept, (std::vector<size_t>{0, 1}));
  auto all = SelectRows(table_->schema(), table_->rows(), {});
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, (std::vector<size_t>{0, 1, 2, 3, 4}));
  predicates.push_back(Eq(Col("nope"), Lit(Value::Int(1))));
  EXPECT_EQ(SelectRows(table_->schema(), table_->rows(), predicates)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(ExprTest, BindFailsOnUnknownColumn) {
  ExprPtr expr = Eq(Col("nope"), Lit(Value::Int(1)));
  EXPECT_EQ(expr->Bind(table_->schema()).code(), StatusCode::kNotFound);
}

TEST_F(ExprTest, CloneIsDeepAndIndependent) {
  ExprPtr expr = Eq(Col("area"), Lit(Value::Str("AI")));
  ExprPtr copy = expr->Clone();
  ASSERT_TRUE(copy->Bind(table_->schema()).ok());
  EXPECT_TRUE(HoldsOn(*copy, 0));
  EXPECT_EQ(expr->ToString(), copy->ToString());
}

TEST_F(ExprTest, ToStringRendering) {
  EXPECT_EQ(Eq(Col("a"), Lit(Value::Int(1)))->ToString(), "a = 1");
  std::vector<ExprPtr> kids;
  kids.push_back(Eq(Col("a"), Lit(Value::Int(1))));
  kids.push_back(Eq(Col("b"), Lit(Value::Int(2))));
  EXPECT_EQ(And(std::move(kids))->ToString(), "(a = 1 AND b = 2)");
}

// ------------------------------------------------------------------ Join

class JoinRowsTest : public ::testing::Test {
 protected:
  JoinRowsTest()
      : table_(MakeStudentTable()),
        left_(RowIdSet::BorrowedAll(table_->schema(), table_->rows())),
        right_(RowIdSet::BorrowedAll(table_->schema().WithQualifier("s2"),
                                     table_->rows())) {}

  std::unique_ptr<Table> table_;
  RowIdSet left_;   ///< Every student row.
  RowIdSet right_;  ///< The same rows, qualified "s2".
};

std::vector<std::string> Rendered(const RowIdSet& set) {
  std::vector<std::string> out;
  for (size_t t = 0; t < set.size(); ++t) {
    out.push_back(RowToString(set.Gather(t)));
  }
  return out;
}

/// Each tuple's row ids, one per part.
std::vector<std::vector<size_t>> Ids(const RowIdSet& set) {
  std::vector<std::vector<size_t>> out(set.size());
  for (size_t t = 0; t < set.size(); ++t) {
    for (size_t p = 0; p < set.num_parts(); ++p) {
      out[t].push_back(set.id(t, p));
    }
  }
  return out;
}

/// Students 0-2 have advisor Garcia, 3-4 Ullman: the advisor equi-join's
/// (left, right) ids, left-major and in right-input order.
const std::vector<std::vector<size_t>> kSameAdvisor = {
    {0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {1, 2}, {2, 0},
    {2, 1}, {2, 2}, {3, 3}, {3, 4}, {4, 3}, {4, 4}};

TEST_F(JoinRowsTest, CrossProductWithoutKeys) {
  auto joined = JoinRows(left_, right_, {}, nullptr);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  ASSERT_EQ(joined->size(), 25u);
  EXPECT_EQ(joined->num_parts(), 2u);
  const std::vector<std::vector<size_t>> ids = Ids(*joined);
  for (size_t i = 0; i < ids.size(); ++i) {
    EXPECT_EQ(ids[i], (std::vector<size_t>{i / 5, i % 5}));
  }
  EXPECT_EQ(joined->Gather(7), ConcatRows(table_->row(1), table_->row(2)));
}

TEST_F(JoinRowsTest, EquiKeys) {
  auto joined =
      JoinRows(left_, right_, {{"student.advisor", "s2.advisor"}}, nullptr);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(Ids(*joined), kSameAdvisor);
}

TEST_F(JoinRowsTest, ResidualPredicate) {
  auto joined = JoinRows(left_, right_, {{"student.advisor", "s2.advisor"}},
                         Cmp(CompareOp::kNe, Col("student.name"),
                             Col("s2.name")));
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  // The 13 same-advisor pairs less the 5 self-pairs.
  EXPECT_EQ(Ids(*joined),
            (std::vector<std::vector<size_t>>{
                {0, 1}, {0, 2}, {1, 0}, {1, 2}, {2, 0}, {2, 1}, {3, 4},
                {4, 3}}));
}

TEST_F(JoinRowsTest, HashAndNestedLoopAgreeInOrder) {
  auto nested = JoinRows(left_, right_, {},
                         Eq(Col("student.advisor"), Col("s2.advisor")));
  auto hashed =
      JoinRows(left_, right_, {{"student.advisor", "s2.advisor"}}, nullptr);
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  ASSERT_TRUE(hashed.ok()) << hashed.status().ToString();
  // Left-tuple major, each left tuple's matches in right-input order.
  EXPECT_EQ(Ids(*nested), kSameAdvisor);
  EXPECT_EQ(Ids(*hashed), kSameAdvisor);
}

TEST_F(JoinRowsTest, NullKeysMatchNothing) {
  Schema l;
  l.AddColumn(Column{"a", "k", ValueType::kString});
  Schema r;
  r.AddColumn(Column{"b", "k", ValueType::kString});
  const std::vector<Row> rows = {{Value::Null()}, {Value::Str("p")}};
  const RowIdSet left = RowIdSet::BorrowedAll(l, rows);
  const RowIdSet right = RowIdSet::BorrowedAll(r, rows);
  auto hashed = JoinRows(left, right, {{"a.k", "b.k"}}, nullptr);
  auto nested = JoinRows(left, right, {}, Eq(Col("a.k"), Col("b.k")));
  ASSERT_TRUE(hashed.ok()) << hashed.status().ToString();
  ASSERT_TRUE(nested.ok()) << nested.status().ToString();
  EXPECT_EQ(Ids(*hashed), (std::vector<std::vector<size_t>>{{1, 1}}));
  EXPECT_EQ(Ids(*nested), (std::vector<std::vector<size_t>>{{1, 1}}));
}

TEST_F(JoinRowsTest, MultiPartInputsReadInPlace) {
  // (student ⋈ s2 on advisor) ⋈ s3: keys and residual read columns of
  // either part of the joined left input, and a multi-part right input's
  // rows are gathered for the residual.
  auto pairs_set =
      JoinRows(left_, right_, {{"student.advisor", "s2.advisor"}}, nullptr);
  ASSERT_TRUE(pairs_set.ok()) << pairs_set.status().ToString();
  const RowIdSet third = RowIdSet::BorrowedAll(
      table_->schema().WithQualifier("s3"), table_->rows());
  auto hashed = JoinRows(*pairs_set, third, {{"s2.name", "s3.name"}},
                         Cmp(CompareOp::kLt, Col("student.year"),
                             Col("s3.year")));
  ASSERT_TRUE(hashed.ok()) << hashed.status().ToString();
  std::vector<std::vector<size_t>> expected;
  for (const std::vector<size_t>& pair : kSameAdvisor) {
    const size_t s = pair[0];
    const size_t s2 = pair[1];
    if (table_->row(s)[3].AsInt() < table_->row(s2)[3].AsInt()) {
      expected.push_back({s, s2, s2});
    }
  }
  EXPECT_EQ(Ids(*hashed), expected);
  for (size_t t = 0; t < hashed->size(); ++t) {
    EXPECT_EQ(hashed->Gather(t),
              ConcatRows(ConcatRows(table_->row(expected[t][0]),
                                    table_->row(expected[t][1])),
                         table_->row(expected[t][2])));
  }
  // The same join with the multi-part set on the right.
  auto flipped = JoinRows(third, *pairs_set, {{"s3.name", "s2.name"}},
                          Cmp(CompareOp::kLt, Col("student.year"),
                              Col("s3.year")));
  ASSERT_TRUE(flipped.ok()) << flipped.status().ToString();
  std::vector<std::vector<size_t>> flipped_expected;
  for (size_t s3 = 0; s3 < table_->num_rows(); ++s3) {
    for (const std::vector<size_t>& e : expected) {
      if (e[2] == s3) flipped_expected.push_back({s3, e[0], e[1]});
    }
  }
  EXPECT_EQ(Ids(*flipped), flipped_expected);
}

TEST_F(JoinRowsTest, UnresolvableKeyOrResidualIsAnError) {
  EXPECT_EQ(JoinRows(left_, right_, {{"student.nope", "s2.advisor"}}, nullptr)
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_EQ(JoinRows(left_, right_, {{"student.advisor", "s2.nope"}}, nullptr)
                .status()
                .code(),
            StatusCode::kNotFound);
  EXPECT_FALSE(JoinRows(left_, right_, {},
                        Eq(Col("student.nope"), Col("s2.advisor")))
                   .ok());
}

TEST(RowIdSetTest, PartsLocateGatherAndShareOwnership) {
  auto students = MakeStudentTable();
  Schema doc_schema;
  doc_schema.AddColumn(Column{"d", "docid", ValueType::kString});
  RowIdSet docs = RowIdSet::Owned(
      doc_schema, {{Value::Str("doc0")}, {Value::Str("doc1")}});
  const RowIdSet scan =
      RowIdSet::Borrowed(students->schema(), students->rows(), {4, 1});
  RowIdSet joined = RowIdSet::JoinOf(scan, docs);
  joined.AppendJoined(scan, 1, docs, std::vector<size_t>{0});
  joined.AppendJoined(scan, 0, docs, std::vector<size_t>{1, 0});
  docs = RowIdSet();  // The joined set keeps the owned rows alive.
  ASSERT_EQ(joined.size(), 3u);
  EXPECT_EQ(joined.schema().num_columns(), 5u);
  auto docid = joined.Resolve("d.docid");
  ASSERT_TRUE(docid.ok()) << docid.status().ToString();
  EXPECT_EQ(docid->part, 1u);
  EXPECT_EQ(docid->column, 0u);
  EXPECT_EQ(joined.Resolve("student.year")->column, 3u);
  EXPECT_EQ(joined.Resolve("nope").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(joined.id(0, 0), 1u);
  EXPECT_EQ(joined.id(2, 1), 0u);
  EXPECT_EQ(Rendered(joined),
            (std::vector<std::string>{"['Gravano', 'distributed systems', "
                                      "'Garcia', 5, 'doc0']",
                                      "['Yan', 'IR', 'Ullman', 6, 'doc1']",
                                      "['Yan', 'IR', 'Ullman', 6, 'doc0']"}));
  const RowIdSet subset = joined.Subset({2, 0});
  EXPECT_EQ(Rendered(subset),
            (std::vector<std::string>{Rendered(joined)[2],
                                      Rendered(joined)[0]}));
}

// ------------------------------------------------------------- TableStats

TEST(TableStatsTest, AnalyzeBasics) {
  auto table = MakeStudentTable();
  TableStats stats = TableStats::Analyze(*table);
  EXPECT_EQ(stats.num_rows(), 5u);
  EXPECT_EQ(stats.NumDistinct(0), 5u);  // name
  EXPECT_EQ(stats.NumDistinct(2), 2u);  // advisor
  EXPECT_EQ(stats.column(3).min.AsInt(), 2);
  EXPECT_EQ(stats.column(3).max.AsInt(), 6);
}

TEST(TableStatsTest, Selectivities) {
  auto table = MakeStudentTable();
  TableStats stats = TableStats::Analyze(*table);
  EXPECT_DOUBLE_EQ(stats.EqSelectivity(2), 0.5);
  EXPECT_DOUBLE_EQ(stats.CompareSelectivity(CompareOp::kNe, 2), 0.5);
  EXPECT_DOUBLE_EQ(stats.CompareSelectivity(CompareOp::kLt, 2), 1.0 / 3.0);
}


TEST(TableStatsTest, HistogramRangeSelectivity) {
  Schema schema;
  schema.AddColumn(Column{"t", "v", ValueType::kInt64});
  Table table("t", schema);
  // Skewed data: 90 rows of value 1..9, 10 rows of 100..1000.
  for (int i = 0; i < 90; ++i) {
    ASSERT_TRUE(table.Insert({Value::Int(1 + i % 9)}).ok());
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(table.Insert({Value::Int(100 * (i + 1))}).ok());
  }
  TableStats stats = TableStats::Analyze(table);
  const Value fifty = Value::Int(50);
  // ~90% of rows are below 50; equi-depth histogram should see that, while
  // the System-R default would say 33%.
  EXPECT_NEAR(stats.FractionBelow(0, fifty), 0.9, 0.1);
  EXPECT_NEAR(stats.CompareSelectivity(CompareOp::kLt, 0, &fifty), 0.9, 0.1);
  EXPECT_NEAR(stats.CompareSelectivity(CompareOp::kGe, 0, &fifty), 0.1, 0.1);
  // Extremes clamp to [0, 1].
  const Value zero = Value::Int(0);
  const Value huge = Value::Int(99999);
  EXPECT_DOUBLE_EQ(stats.FractionBelow(0, zero), 0.0);
  EXPECT_DOUBLE_EQ(stats.FractionBelow(0, huge), 1.0);
  // Without a literal the System-R default still applies.
  EXPECT_DOUBLE_EQ(stats.CompareSelectivity(CompareOp::kLt, 0), 1.0 / 3.0);
}

TEST(TableStatsTest, HistogramOnStrings) {
  auto table = MakeStudentTable();
  TableStats stats = TableStats::Analyze(*table);
  // Names sorted: Gravano, Kao, Radhika, Smith, Yan. 'M' sits after 2/5.
  const Value m = Value::Str("M");
  const double below = stats.FractionBelow(0, m);
  EXPECT_GT(below, 0.2);
  EXPECT_LT(below, 0.7);
}

TEST(TableStatsTest, NullsTracked) {
  Schema schema;
  schema.AddColumn(Column{"t", "a", ValueType::kInt64});
  Table table("t", schema);
  ASSERT_TRUE(table.Insert({Value::Null()}).ok());
  ASSERT_TRUE(table.Insert({Value::Int(1)}).ok());
  TableStats stats = TableStats::Analyze(table);
  EXPECT_EQ(stats.column(0).num_nulls, 1u);
  EXPECT_EQ(stats.NumDistinct(0), 1u);
}

}  // namespace
}  // namespace textjoin
