#include <gtest/gtest.h>

#include <set>

#include "core/executor.h"
#include "sql/federation_service.h"
#include "sql/parser.h"
#include "workload/university.h"

namespace textjoin {
namespace {

/// Query shapes both statistics providers must plan, each a text join over
/// the university workload: aliased relations (the join column resolves
/// through its alias), an aliased self-join, a text selection beside an
/// aliased join, a join column without string values (s = f = 0), two text
/// joins over one aliased relation, and the unaliased control.
const char* const kProviderShapes[] = {
    "select s.name, mercury.docid from student s, mercury "
    "where s.name in mercury.author",
    "select a.name, b.name, mercury.docid from student a, student b, mercury "
    "where a.advisor = b.advisor and a.name in mercury.author",
    "select f.name, mercury.docid from faculty f, mercury "
    "where 'belief update' in mercury.title and f.name in mercury.author",
    "select student.name, mercury.docid from student, mercury "
    "where student.year in mercury.title",
    "select p.name, mercury.title from project p, mercury "
    "where p.name in mercury.title and p.member in mercury.author",
    "select student.name, mercury.docid from student, mercury "
    "where student.name in mercury.author",
};

class FederationServiceTest : public ::testing::Test {
 protected:
  FederationServiceTest() {
    UniversityConfig config;
    config.num_students = 50;
    config.num_faculty = 10;
    config.num_projects = 8;
    config.num_documents = 300;
    auto built = BuildUniversity(config);
    TEXTJOIN_CHECK(built.ok(), "%s", built.status().ToString().c_str());
    workload_ = std::move(*built);
  }

  FederationService MakeService(FederationService::Options options =
                                    FederationService::Options{}) {
    options.text = workload_.text;
    return FederationService(workload_.catalog.get(), workload_.engine.get(),
                             std::move(options));
  }

  std::multiset<std::string> Reference(const std::string& sql) {
    auto query = ParseQuery(sql, workload_.text);
    TEXTJOIN_CHECK(query.ok(), "%s", query.status().ToString().c_str());
    auto result = ReferenceExecute(*query, *workload_.catalog,
                                   workload_.engine->documents());
    TEXTJOIN_CHECK(result.ok(), "%s", result.status().ToString().c_str());
    std::multiset<std::string> out;
    for (const Row& row : result->rows) out.insert(RowToString(row));
    return out;
  }

  /// Runs every shape of kProviderShapes on a fresh service under one
  /// provider; each must plan, and return the reference rows.
  void ExpectEveryShapeMatchesReference(bool oracle_stats) {
    for (const char* sql : kProviderShapes) {
      SCOPED_TRACE(sql);
      FederationService::Options options;
      options.oracle_stats = oracle_stats;
      FederationService service = MakeService(options);
      auto outcome = service.Run(sql);
      if (!outcome.ok()) {
        ADD_FAILURE() << outcome.status().ToString();
        continue;
      }
      std::multiset<std::string> got;
      for (const Row& row : outcome->rows.rows) got.insert(RowToString(row));
      EXPECT_EQ(got, Reference(sql));
    }
  }

  UniversityWorkload workload_;
};

const char* const kSql =
    "select student.name, mercury.docid from student, mercury "
    "where student.year > 2 and student.name in mercury.author";

TEST_F(FederationServiceTest, QueryEndToEnd) {
  FederationService service = MakeService();
  auto outcome = service.Run(kSql);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  std::multiset<std::string> got;
  for (const Row& row : outcome->rows.rows) got.insert(RowToString(row));
  EXPECT_EQ(got, Reference(kSql));
  EXPECT_GT(service.meter().invocations, 0u);
  EXPECT_EQ(outcome->meter_delta.invocations, service.meter().invocations);
}

TEST_F(FederationServiceTest, ExplainDoesNotExecute) {
  FederationService service = MakeService();
  auto text = service.Explain(kSql);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("ForeignJoin mercury"), std::string::npos);
  EXPECT_NE(text->find("Scan student"), std::string::npos);
  // Oracle stats mode: explaining must not touch the metered source.
  EXPECT_EQ(service.meter().invocations, 0u);
}

TEST_F(FederationServiceTest, ParseErrorsPropagate) {
  FederationService service = MakeService();
  EXPECT_FALSE(service.Run("select from nothing").ok());
  EXPECT_FALSE(service.Run("select * from student where a or b").ok());
  EXPECT_FALSE(service.Run("select * from missing_table, mercury "
                           "where missing_table.x in mercury.author")
                   .ok());
  // An equi-join key naming a column the relation lacks (faculty has no
  // area) fails the query instead of aborting the process.
  EXPECT_EQ(service
                .Run("select student.name from student, faculty "
                     "where student.area = faculty.area")
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(FederationServiceTest, SamplingModeChargesStatsMeter) {
  FederationService::Options options;
  options.oracle_stats = false;
  options.sample_size = 5;
  FederationService service = MakeService(options);
  auto outcome = service.Run(kSql);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  std::multiset<std::string> got;
  for (const Row& row : outcome->rows.rows) got.insert(RowToString(row));
  // Sampled statistics may pick a different plan, never a different answer.
  EXPECT_EQ(got, Reference(kSql));
  EXPECT_GT(service.stats_meter().invocations, 0u);
  EXPECT_LE(service.stats_meter().invocations, 5u);
}

TEST_F(FederationServiceTest, ExactStatisticsPlanEveryShape) {
  ExpectEveryShapeMatchesReference(/*oracle_stats=*/true);
}

TEST_F(FederationServiceTest, SampledStatisticsPlanEveryShape) {
  ExpectEveryShapeMatchesReference(/*oracle_stats=*/false);
}

TEST_F(FederationServiceTest, StatisticsAmortizedAcrossQueries) {
  FederationService::Options options;
  options.oracle_stats = false;
  options.sample_size = 5;
  FederationService service = MakeService(options);
  ASSERT_TRUE(service.Run(kSql).ok());
  const uint64_t after_first = service.stats_meter().invocations;
  ASSERT_TRUE(service.Run(kSql).ok());
  // Same predicate: no new sampling traffic (paper: "the sampling cost is
  // amortized over queries with the same predicate").
  EXPECT_EQ(service.stats_meter().invocations, after_first);
}

TEST_F(FederationServiceTest, MeterAccumulatesAndResets) {
  FederationService service = MakeService();
  ASSERT_TRUE(service.Run(kSql).ok());
  const uint64_t once = service.meter().invocations;
  ASSERT_TRUE(service.Run(kSql).ok());
  EXPECT_GE(service.meter().invocations, 2 * once);
  service.ResetMeter();
  EXPECT_EQ(service.meter().invocations, 0u);
}

TEST_F(FederationServiceTest, PureRelationalQueriesWork) {
  FederationService service = MakeService();
  auto result = service.Run(
      "select student.name from student, faculty "
      "where student.advisor = faculty.name and faculty.dept = 'ai'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(service.meter().invocations, 0u);  // no text source involved
}

}  // namespace
}  // namespace textjoin
