#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/random.h"
#include "connector/remote_text_source.h"
#include "core/enumerator.h"
#include "core/executor.h"
#include "core/statistics.h"
#include "sql/parser.h"
#include "workload/paper_queries.h"
#include "core/join_methods.h"
#include "tests/test_util.h"
#include "workload/university.h"

namespace textjoin {
namespace {

std::multiset<std::string> Rendered(const ExecutionResult& result) {
  std::multiset<std::string> out;
  for (const Row& row : result.rows) out.insert(RowToString(row));
  return out;
}

/// Full pipeline: SQL text -> parse -> stats -> optimize -> execute,
/// validated against brute force, over the narrative university workload.
class SqlPipelineTest : public ::testing::Test {
 protected:
  SqlPipelineTest() {
    UniversityConfig config;
    config.num_students = 60;
    config.num_faculty = 12;
    config.num_projects = 10;
    config.num_documents = 400;
    auto built = BuildUniversity(config);
    TEXTJOIN_CHECK(built.ok(), "%s", built.status().ToString().c_str());
    workload_ = std::move(*built);
  }

  void RunAndCompare(const std::string& sql) {
    auto query = ParseQuery(sql, workload_.text);
    ASSERT_TRUE(query.ok()) << sql << "\n" << query.status().ToString();
    StatsRegistry registry;
    ASSERT_TRUE(ComputeExactStats(*query, *workload_.catalog,
                                  *workload_.engine, registry)
                    .ok());
    Enumerator enumerator(workload_.catalog.get(), &registry,
                          workload_.engine->num_documents(),
                          workload_.engine->max_search_terms(),
                          EnumeratorOptions{});
    auto plan = enumerator.Optimize(*query);
    ASSERT_TRUE(plan.ok()) << sql << "\n" << plan.status().ToString();
    RemoteTextSource source(workload_.engine.get());
    PlanExecutor executor(workload_.catalog.get(), &source);
    auto result = executor.Execute(**plan, *query);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    auto reference = ReferenceExecute(*query, *workload_.catalog,
                                      workload_.engine->documents());
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(Rendered(*result), Rendered(*reference))
        << sql << "\nplan:\n"
        << (*plan)->ToString(*query);
  }

  UniversityWorkload workload_;
};

TEST_F(SqlPipelineTest, SelectionPlusJoin) {
  RunAndCompare(
      "select student.name, mercury.docid from student, mercury "
      "where 'query optimization' in mercury.title "
      "and student.name in mercury.author");
}

TEST_F(SqlPipelineTest, RelationalFilterAndTextJoin) {
  RunAndCompare(
      "select student.name, student.year, mercury.docid "
      "from student, mercury where student.year >= 4 "
      "and student.name in mercury.author");
}

TEST_F(SqlPipelineTest, TwoTextJoinPredicates) {
  RunAndCompare(
      "select student.name, mercury.docid from student, mercury "
      "where student.advisor in mercury.author "
      "and student.name in mercury.author");
}

TEST_F(SqlPipelineTest, ProjectTitleJoin) {
  RunAndCompare(
      "select project.name, project.member, mercury.docid "
      "from project, mercury where project.sponsor = 'NSF' "
      "and project.name in mercury.title "
      "and project.member in mercury.author");
}

TEST_F(SqlPipelineTest, DocidOnlySemiJoin) {
  RunAndCompare(
      "select mercury.docid from student, mercury "
      "where student.year > 2 and 'filtering' in mercury.title "
      "and student.name in mercury.author");
}

TEST_F(SqlPipelineTest, MultiRelationWithText) {
  RunAndCompare(
      "select student.name, faculty.name, mercury.docid "
      "from student, faculty, mercury "
      "where faculty.dept != student.area "
      "and student.name in mercury.author "
      "and faculty.name in mercury.author");
}

TEST_F(SqlPipelineTest, PureRelational) {
  RunAndCompare(
      "select student.name, faculty.name from student, faculty "
      "where student.advisor = faculty.name and student.year > 3");
}

TEST_F(SqlPipelineTest, SelectStar) {
  RunAndCompare(
      "select * from student, mercury "
      "where student.year > 5 and student.name in mercury.author "
      "and '1993' in mercury.year");
}

TEST_F(SqlPipelineTest, LikeFilter) {
  RunAndCompare(
      "select student.name from student, mercury "
      "where student.name like 'B%' and student.name in mercury.author");
}

TEST_F(SqlPipelineTest, YearFieldSelection) {
  RunAndCompare(
      "select mercury.docid, mercury.title from student, mercury "
      "where '1994' in mercury.year and student.name in mercury.author "
      "and student.year = 3");
}

/// The optimizer driven by *sampled* statistics must still return the
/// correct answer (it may pick a different plan than with oracle stats).
TEST(SampledStatsTest, OptimizerWithSampledStatsIsStillCorrect) {
  Q3Config config;
  config.num_documents = 2000;
  auto built = BuildQ3(config);
  ASSERT_TRUE(built.ok());
  const FederatedQuery& query = built->query;
  Scenario& scenario = built->scenario;
  RemoteTextSource source(scenario.engine.get());

  // Sample-based registry (paper Section 4.2) with a small sample.
  StatsRegistry registry;
  Rng rng(123);
  Table* table = *scenario.catalog->GetTable("project");
  registry.SetTableStats("project", TableStats::Analyze(*table));
  AccessMeter stats_meter;
  for (const TextJoinPredicate& pred : query.text_joins) {
    auto col = table->schema().Resolve(pred.column_ref);
    ASSERT_TRUE(col.ok());
    ScopedMeter redirect(source, &stats_meter);
    auto est = EstimatePredicateStats(*table, *col, source, pred.field,
                                      /*sample_size=*/10, rng);
    ASSERT_TRUE(est.ok());
    registry.SetTextJoinStats(pred.column_ref, pred.field, est->selectivity,
                              est->fanout);
  }
  for (const TextSelection& sel : query.text_selections) {
    registry.SetTextSelectionStats(sel.term, sel.field, 1.0, 10.0);
  }
  Enumerator enumerator(scenario.catalog.get(), &registry,
                        scenario.engine->num_documents(),
                        scenario.engine->max_search_terms(),
                        EnumeratorOptions{});
  auto plan = enumerator.Optimize(query);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  PlanExecutor executor(scenario.catalog.get(), &source);
  auto result = executor.Execute(**plan, query);
  ASSERT_TRUE(result.ok());
  auto reference =
      ReferenceExecute(query, *scenario.catalog, scenario.engine->documents());
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(Rendered(*result), Rendered(*reference));
  // Sampling itself cost something, tracked separately (amortized by the
  // paper across queries).
  EXPECT_GT(stats_meter.invocations, 0u);
}

/// Executing the same plan twice yields identical results and identical
/// meter charges (the executor and engine are deterministic).
TEST(DeterminismTest, RepeatedExecutionIsStable) {
  auto built = BuildQ4(Q4Config{});
  ASSERT_TRUE(built.ok());
  const FederatedQuery& query = built->query;
  Scenario& scenario = built->scenario;
  StatsRegistry registry;
  ASSERT_TRUE(ComputeExactStats(query, *scenario.catalog, *scenario.engine,
                                registry)
                  .ok());
  Enumerator enumerator(scenario.catalog.get(), &registry,
                        scenario.engine->num_documents(),
                        scenario.engine->max_search_terms(),
                        EnumeratorOptions{});
  auto plan = enumerator.Optimize(query);
  ASSERT_TRUE(plan.ok());

  std::string first_meter;
  std::multiset<std::string> first_rows;
  for (int round = 0; round < 3; ++round) {
    RemoteTextSource source(scenario.engine.get());
    PlanExecutor executor(scenario.catalog.get(), &source);
    auto result = executor.Execute(**plan, query);
    ASSERT_TRUE(result.ok());
    if (round == 0) {
      first_meter = source.meter().ToString();
      first_rows = Rendered(*result);
    } else {
      EXPECT_EQ(source.meter().ToString(), first_meter);
      EXPECT_EQ(Rendered(*result), first_rows);
    }
  }
}


/// A query with text selections but NO text join predicates: the foreign
/// join degenerates to "every tuple pairs with every selected document".
TEST(SelectionOnlyQueryTest, OptimizerAndMethodsHandleZeroJoinPredicates) {
  auto engine = textjoin::testing::MakeSmallEngine();
  RemoteTextSource source(engine.get());
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(textjoin::testing::MakeStudentTable()).ok());

  FederatedQuery query;
  query.relations = {{"student", "student"}};
  query.text = textjoin::testing::MercuryDecl();
  query.has_text_relation = true;
  query.relational_predicates.push_back(
      Cmp(CompareOp::kGt, Col("student.year"), Lit(Value::Int(4))));
  query.text_selections = {{"belief update", "title"}};
  query.output_columns = {"student.name", "mercury.docid", "mercury.title"};

  StatsRegistry registry;
  ASSERT_TRUE(ComputeExactStats(query, catalog, *engine, registry).ok());
  Enumerator enumerator(&catalog, &registry, engine->num_documents(),
                        engine->max_search_terms(), EnumeratorOptions{});
  auto plan = enumerator.Optimize(query);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  PlanExecutor executor(&catalog, &source);
  auto result = executor.Execute(**plan, query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto reference = ReferenceExecute(query, catalog, engine->documents());
  ASSERT_TRUE(reference.ok());
  // Gravano(5) and Yan(6) pass the filter; d1 is the only 'belief update'
  // doc => 2 cross pairs.
  EXPECT_EQ(result->rows.size(), 2u);
  EXPECT_EQ(result->rows.size(), reference->rows.size());
}

/// A foreign join with no text predicates at all is rejected cleanly.
TEST(SelectionOnlyQueryTest, NoTextPredicatesRejected) {
  auto engine = textjoin::testing::MakeSmallEngine();
  RemoteTextSource source(engine.get());
  auto table = textjoin::testing::MakeStudentTable();
  ForeignJoinSpec spec;
  spec.left_schema = table->schema();
  spec.text = textjoin::testing::MercuryDecl();
  EXPECT_EQ(ExecuteForeignJoin(JoinMethodKind::kTS, spec, table->rows(),
                               source)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace textjoin
