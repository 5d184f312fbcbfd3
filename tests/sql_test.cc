#include <gtest/gtest.h>

#include "connector/remote_text_source.h"
#include "core/enumerator.h"
#include "core/executor.h"
#include "core/statistics.h"
#include "sql/lexer.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace textjoin {
namespace {

using textjoin::testing::MakeSmallEngine;
using textjoin::testing::MakeStudentTable;
using textjoin::testing::MercuryDecl;

// ----------------------------------------------------------------- Lexer

TEST(SqlLexerTest, BasicTokens) {
  auto tokens = LexSql("select a.b, 'x''y' from t where n >= 1.5");
  ASSERT_TRUE(tokens.ok());
  std::vector<std::string> texts;
  for (const SqlToken& t : *tokens) texts.push_back(t.text);
  EXPECT_EQ(texts,
            (std::vector<std::string>{"select", "a", ".", "b", ",", "x'y",
                                      "from", "t", "where", "n", ">=", "1.5",
                                      ""}));
  EXPECT_EQ((*tokens)[5].kind, SqlTokenKind::kString);
  EXPECT_EQ((*tokens)[11].kind, SqlTokenKind::kFloat);
}

TEST(SqlLexerTest, NotEqualsVariants) {
  auto a = LexSql("a != b");
  auto b = LexSql("a <> b");
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ((*a)[1].text, "!=");
  EXPECT_EQ((*b)[1].text, "!=");
}

TEST(SqlLexerTest, Errors) {
  EXPECT_FALSE(LexSql("select 'unterminated").ok());
  EXPECT_FALSE(LexSql("select a; drop").ok());
}

// ---------------------------------------------------------------- Parser

class SqlParserTest : public ::testing::Test {
 protected:
  Result<FederatedQuery> Parse(const std::string& sql) {
    return ParseQuery(sql, MercuryDecl());
  }
};

TEST_F(SqlParserTest, PaperQ1) {
  auto q = Parse(
      "select * from student, mercury "
      "where student.area = 'AI' and student.year > 3 "
      "and 'belief update' in mercury.title "
      "and student.name in mercury.author");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(q->has_text_relation);
  ASSERT_EQ(q->relations.size(), 1u);
  EXPECT_EQ(q->relations[0].table_name, "student");
  EXPECT_EQ(q->relational_predicates.size(), 2u);
  ASSERT_EQ(q->text_selections.size(), 1u);
  EXPECT_EQ(q->text_selections[0].term, "belief update");
  EXPECT_EQ(q->text_selections[0].field, "title");
  ASSERT_EQ(q->text_joins.size(), 1u);
  EXPECT_EQ(q->text_joins[0].column_ref, "student.name");
  EXPECT_EQ(q->text_joins[0].field, "author");
  EXPECT_TRUE(q->output_columns.empty());  // SELECT *
}

TEST_F(SqlParserTest, PaperQ2SemiJoinProjection) {
  auto q = Parse(
      "select mercury.docid from student, mercury "
      "where student.advisor = 'Garcia' and 'text' in mercury.title "
      "and student.name in mercury.author");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->output_columns,
            (std::vector<std::string>{"mercury.docid"}));
  EXPECT_FALSE(q->NeedsDocumentFields());
}

TEST_F(SqlParserTest, PaperQ5MultiJoin) {
  auto q = Parse(
      "select student.name, mercury.docid "
      "from student, faculty, mercury "
      "where student.name in mercury.author "
      "and faculty.name in mercury.author "
      "and faculty.area != student.area "
      "and '1993' in mercury.year");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->relations.size(), 2u);
  EXPECT_EQ(q->text_joins.size(), 2u);
  EXPECT_EQ(q->text_selections.size(), 1u);
  EXPECT_EQ(q->relational_predicates.size(), 1u);
}

TEST_F(SqlParserTest, Aliases) {
  auto q = Parse("select s.name from student s, mercury m "
                 "where s.name in m.author");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->relations.size(), 1u);
  EXPECT_EQ(q->relations[0].alias, "s");
  EXPECT_EQ(q->text.alias, "m");
  EXPECT_EQ(q->text_joins[0].column_ref, "s.name");
}

TEST_F(SqlParserTest, PureRelationalQuery) {
  auto q = Parse("select name from student where year > 3");
  ASSERT_TRUE(q.ok());
  EXPECT_FALSE(q->has_text_relation);
  EXPECT_TRUE(q->text_joins.empty());
}

TEST_F(SqlParserTest, LikePredicate) {
  auto q = Parse("select * from student where name like 'Gra%'");
  ASSERT_TRUE(q.ok());
  ASSERT_EQ(q->relational_predicates.size(), 1u);
  EXPECT_NE(q->relational_predicates[0]->ToString().find("LIKE"),
            std::string::npos);
}

TEST_F(SqlParserTest, RejectsOr) {
  auto q = Parse("select * from student where year > 3 or year < 1");
  EXPECT_EQ(q.status().code(), StatusCode::kUnimplemented);
}

TEST_F(SqlParserTest, RejectsBadInTarget) {
  EXPECT_FALSE(Parse("select * from student, mercury "
                     "where student.name in student.area")
                   .ok());
  EXPECT_FALSE(Parse("select * from student, mercury "
                     "where student.name in mercury.nofield")
                   .ok());
  EXPECT_FALSE(Parse("select * from student "
                     "where student.name in mercury.author")
                   .ok());
}

TEST_F(SqlParserTest, RejectsMalformedQueries) {
  EXPECT_FALSE(Parse("").ok());
  EXPECT_FALSE(Parse("select").ok());
  EXPECT_FALSE(Parse("select * from").ok());
  EXPECT_FALSE(Parse("select * from student where").ok());
  EXPECT_FALSE(Parse("select * from student where year >").ok());
  EXPECT_FALSE(Parse("select * from student extra garbage here").ok());
  EXPECT_FALSE(Parse("select * from mercury, mercury").ok());
}

TEST_F(SqlParserTest, NumericLiterals) {
  auto q = Parse("select * from student where year >= 3 and year <= 5.5");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->relational_predicates.size(), 2u);
}

TEST_F(SqlParserTest, ToStringRoundtripsThroughParser) {
  auto q = Parse(
      "select student.name from student, mercury "
      "where student.year > 3 and 'belief' in mercury.title "
      "and student.name in mercury.author");
  ASSERT_TRUE(q.ok());
  auto q2 = ParseQuery(q->ToString(), MercuryDecl());
  ASSERT_TRUE(q2.ok()) << q2.status().ToString() << "\n" << q->ToString();
  EXPECT_EQ(q->ToString(), q2->ToString());
}

TEST_F(SqlParserTest, DistinctOrderByLimit) {
  auto q = Parse(
      "select distinct student.name from student, mercury "
      "where student.name in mercury.author "
      "order by student.name limit 7");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_TRUE(q->distinct);
  EXPECT_EQ(q->order_by, (std::vector<std::string>{"student.name"}));
  EXPECT_EQ(q->limit, 7u);
  // Rendered form re-parses identically.
  auto q2 = ParseQuery(q->ToString(), MercuryDecl());
  ASSERT_TRUE(q2.ok()) << q2.status().ToString();
  EXPECT_EQ(q->ToString(), q2->ToString());
}

TEST_F(SqlParserTest, OrderByMultipleColumns) {
  auto q = Parse("select * from student order by area, name");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->order_by,
            (std::vector<std::string>{"area", "name"}));
  EXPECT_EQ(q->limit, FederatedQuery::kNoLimit);
}

TEST_F(SqlParserTest, MalformedDecorations) {
  EXPECT_FALSE(Parse("select * from student order name").ok());
  EXPECT_FALSE(Parse("select * from student order by").ok());
  EXPECT_FALSE(Parse("select * from student limit 'x'").ok());
  EXPECT_FALSE(Parse("select * from student limit").ok());
  // Literals outside their type's range are parse errors, not aborts.
  EXPECT_EQ(Parse("select * from student where student.year > "
                  "99999999999999999999")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse("select * from student limit 99999999999999999999")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(Parse("select * from student where student.year > " +
                  std::string(400, '9') + ".5")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}


TEST_F(SqlParserTest, Aggregates) {
  auto q = Parse(
      "select student.advisor, count(*), min(student.year), "
      "max(student.year) from student group by student.advisor");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->aggregates.size(), 3u);
  EXPECT_EQ(q->aggregates[0].kind, AggregateItem::Kind::kCountStar);
  EXPECT_EQ(q->aggregates[1].kind, AggregateItem::Kind::kMin);
  EXPECT_EQ(q->aggregates[2].kind, AggregateItem::Kind::kMax);
  EXPECT_EQ(q->group_by, (std::vector<std::string>{"student.advisor"}));
  EXPECT_TRUE(q->output_columns.empty());
  // Rendered form reparses.
  auto q2 = ParseQuery(q->ToString(), MercuryDecl());
  ASSERT_TRUE(q2.ok()) << q2.status().ToString() << " <= " << q->ToString();
  EXPECT_EQ(q->ToString(), q2->ToString());
}

TEST_F(SqlParserTest, GlobalAggregateWithoutGroupBy) {
  auto q = Parse("select count(*) from student where year > 3");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->aggregates.size(), 1u);
  EXPECT_TRUE(q->group_by.empty());
}

TEST_F(SqlParserTest, AggregateValidation) {
  // Plain select item not in GROUP BY.
  EXPECT_FALSE(Parse("select name, count(*) from student").ok());
  // GROUP BY without aggregates.
  EXPECT_FALSE(Parse("select name from student group by name").ok());
  // Malformed aggregate syntax.
  EXPECT_FALSE(Parse("select count( from student").ok());
  EXPECT_FALSE(Parse("select min(*) from student").ok());
}

TEST(SqlEndToEndTest, AggregationExecution) {
  auto engine = MakeSmallEngine();
  RemoteTextSource source(engine.get());
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeStudentTable()).ok());

  // Per-advisor publication counts: Garcia's students (Radhika, Gravano,
  // Kao) have 1+2+2 = 5 (row, doc) pairs; Ullman's (Smith, Yan) 2+1 = 3.
  auto query = ParseQuery(
      "select student.advisor, count(*) from student, mercury "
      "where student.name in mercury.author "
      "group by student.advisor order by student.advisor",
      MercuryDecl());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  StatsRegistry registry;
  ASSERT_TRUE(ComputeExactStats(*query, catalog, *engine, registry).ok());
  Enumerator enumerator(&catalog, &registry, engine->num_documents(),
                        engine->max_search_terms(), EnumeratorOptions{});
  auto plan = enumerator.Optimize(*query);
  ASSERT_TRUE(plan.ok());
  PlanExecutor executor(&catalog, &source);
  auto result = executor.Execute(**plan, *query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0][0].AsString(), "Garcia");
  EXPECT_EQ(result->rows[0][1].AsInt(), 5);
  EXPECT_EQ(result->rows[1][0].AsString(), "Ullman");
  EXPECT_EQ(result->rows[1][1].AsInt(), 3);

  // Must equal the brute-force reference.
  auto reference = ReferenceExecute(*query, catalog, engine->documents());
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(reference->rows.size(), 2u);
  EXPECT_EQ(reference->rows[0][1].AsInt(), 5);
}


/// The exact statistics pass resolves a text-join column through the
/// relation its qualifier names, alias included, and keys its statistics
/// by the table column.
TEST(SqlEndToEndTest, ExactStatisticsResolveAliasedColumns) {
  auto engine = MakeSmallEngine();
  RemoteTextSource source(engine.get());
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeStudentTable()).ok());
  auto query = ParseQuery(
      "select s.name, mercury.docid from student s, mercury "
      "where s.name in mercury.author",
      MercuryDecl());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  StatsRegistry registry;
  Status computed = ComputeExactStats(*query, catalog, *engine, registry);
  ASSERT_TRUE(computed.ok()) << computed.ToString();
  // All five names are authors, of 1, 2, 2, 2 and 1 documents.
  auto stats = registry.GetTextJoinStats("student.name", "author");
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_DOUBLE_EQ(stats->selectivity, 1.0);
  EXPECT_DOUBLE_EQ(stats->fanout, 8.0 / 5.0);
  Enumerator enumerator(&catalog, &registry, engine->num_documents(),
                        engine->max_search_terms(), EnumeratorOptions{});
  auto plan = enumerator.Optimize(*query);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  PlanExecutor executor(&catalog, &source);
  auto result = executor.Execute(**plan, *query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows.size(), 8u);
}

TEST(SqlEndToEndTest, SumAndAvgAggregates) {
  auto engine = MakeSmallEngine();
  RemoteTextSource source(engine.get());
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeStudentTable()).ok());
  // Years: Garcia {4,5,2} sum 11 avg 11/3; Ullman {4,6} sum 10 avg 5.
  auto query = ParseQuery(
      "select student.advisor, sum(student.year), avg(student.year) "
      "from student group by student.advisor order by student.advisor",
      MercuryDecl());
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  StatsRegistry registry;
  ASSERT_TRUE(ComputeExactStats(*query, catalog, *engine, registry).ok());
  Enumerator enumerator(&catalog, &registry, engine->num_documents(),
                        engine->max_search_terms(), EnumeratorOptions{});
  auto plan = enumerator.Optimize(*query);
  ASSERT_TRUE(plan.ok());
  PlanExecutor executor(&catalog, &source);
  auto result = executor.Execute(**plan, *query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0][0].AsString(), "Garcia");
  EXPECT_DOUBLE_EQ(result->rows[0][1].AsDouble(), 11.0);
  EXPECT_NEAR(result->rows[0][2].AsDouble(), 11.0 / 3.0, 1e-9);
  EXPECT_EQ(result->rows[1][0].AsString(), "Ullman");
  EXPECT_DOUBLE_EQ(result->rows[1][1].AsDouble(), 10.0);
  EXPECT_DOUBLE_EQ(result->rows[1][2].AsDouble(), 5.0);
}

TEST(SqlEndToEndTest, GlobalCountOverEmptyJoinIsZero) {
  auto engine = MakeSmallEngine();
  RemoteTextSource source(engine.get());
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeStudentTable()).ok());
  auto query = ParseQuery(
      "select count(*), min(student.year) from student, mercury "
      "where 'zzznothing' in mercury.title "
      "and student.name in mercury.author",
      MercuryDecl());
  ASSERT_TRUE(query.ok());
  StatsRegistry registry;
  ASSERT_TRUE(ComputeExactStats(*query, catalog, *engine, registry).ok());
  Enumerator enumerator(&catalog, &registry, engine->num_documents(),
                        engine->max_search_terms(), EnumeratorOptions{});
  auto plan = enumerator.Optimize(*query);
  ASSERT_TRUE(plan.ok());
  PlanExecutor executor(&catalog, &source);
  auto result = executor.Execute(**plan, *query);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);  // the global group always exists
  EXPECT_EQ(result->rows[0][0].AsInt(), 0);
  EXPECT_TRUE(result->rows[0][1].is_null());  // MIN over nothing is NULL
}

// ------------------------------------------- SQL end-to-end integration

TEST(SqlEndToEndTest, ParseOptimizeExecute) {
  auto engine = MakeSmallEngine();
  RemoteTextSource source(engine.get());
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeStudentTable()).ok());

  auto query = ParseQuery(
      "select student.name, mercury.docid from student, mercury "
      "where 'belief' in mercury.title and student.name in mercury.author",
      MercuryDecl());
  ASSERT_TRUE(query.ok());

  StatsRegistry registry;
  ASSERT_TRUE(ComputeExactStats(*query, catalog, *engine, registry).ok());
  Enumerator enumerator(&catalog, &registry, engine->num_documents(),
                        engine->max_search_terms(), EnumeratorOptions{});
  auto plan = enumerator.Optimize(*query);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  PlanExecutor executor(&catalog, &source);
  auto result = executor.Execute(**plan, *query);
  ASSERT_TRUE(result.ok());
  auto reference = ReferenceExecute(*query, catalog, engine->documents());
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(result->rows.size(), reference->rows.size());
  EXPECT_EQ(result->rows.size(), 3u);  // Radhika/d1, Smith/d1, Kao/d4
}

TEST(SqlEndToEndTest, DistinctOrderByLimitExecution) {
  auto engine = MakeSmallEngine();
  RemoteTextSource source(engine.get());
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeStudentTable()).ok());

  // Names of students with any publication, sorted, capped at 2. Gravano,
  // Kao, Radhika, Smith, Yan all publish -> first two alphabetically.
  auto query = ParseQuery(
      "select distinct student.name from student, mercury "
      "where student.name in mercury.author "
      "order by student.name limit 2",
      MercuryDecl());
  ASSERT_TRUE(query.ok()) << query.status().ToString();

  StatsRegistry registry;
  ASSERT_TRUE(ComputeExactStats(*query, catalog, *engine, registry).ok());
  Enumerator enumerator(&catalog, &registry, engine->num_documents(),
                        engine->max_search_terms(), EnumeratorOptions{});
  auto plan = enumerator.Optimize(*query);
  ASSERT_TRUE(plan.ok());
  PlanExecutor executor(&catalog, &source);
  auto result = executor.Execute(**plan, *query);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows[0][0].AsString(), "Gravano");
  EXPECT_EQ(result->rows[1][0].AsString(), "Kao");

  // The brute-force reference honors the same decorations.
  auto reference = ReferenceExecute(*query, catalog, engine->documents());
  ASSERT_TRUE(reference.ok());
  ASSERT_EQ(reference->rows.size(), 2u);
  EXPECT_EQ(reference->rows[0][0].AsString(), "Gravano");

  // LIMIT 0 keeps the schema and drops every row, on both paths.
  auto none = ParseQuery(
      "select distinct student.name from student, mercury "
      "where student.name in mercury.author "
      "order by student.name limit 0",
      MercuryDecl());
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  auto none_plan = enumerator.Optimize(*none);
  ASSERT_TRUE(none_plan.ok());
  auto none_result = executor.Execute(**none_plan, *none);
  ASSERT_TRUE(none_result.ok());
  EXPECT_TRUE(none_result->rows.empty());
  EXPECT_EQ(none_result->schema.num_columns(), 1u);
  auto none_reference = ReferenceExecute(*none, catalog, engine->documents());
  ASSERT_TRUE(none_reference.ok());
  EXPECT_TRUE(none_reference->rows.empty());
}

TEST(SqlEndToEndTest, ExplainAnalyzeRendersActuals) {
  auto engine = MakeSmallEngine();
  RemoteTextSource source(engine.get());
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeStudentTable()).ok());
  auto query = ParseQuery(
      "select student.name, mercury.docid from student, mercury "
      "where 'belief' in mercury.title and student.name in mercury.author",
      MercuryDecl());
  ASSERT_TRUE(query.ok());
  StatsRegistry registry;
  ASSERT_TRUE(ComputeExactStats(*query, catalog, *engine, registry).ok());
  Enumerator enumerator(&catalog, &registry, engine->num_documents(),
                        engine->max_search_terms(), EnumeratorOptions{});
  auto plan = enumerator.Optimize(*query);
  ASSERT_TRUE(plan.ok());
  PlanExecutor executor(&catalog, &source);
  ExecutionProfile profile;
  auto result = executor.Execute(**plan, *query, &profile);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(profile.nodes.size(), 2u);  // scan + foreign join
  const std::string text = ExplainAnalyze(**plan, *query, profile);
  EXPECT_NE(text.find("actual rows=3"), std::string::npos) << text;
  EXPECT_NE(text.find("text-cost="), std::string::npos) << text;
  EXPECT_NE(text.find("actual rows=5"), std::string::npos) << text;  // scan
}

}  // namespace
}  // namespace textjoin
