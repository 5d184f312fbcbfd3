#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "connector/corpus_writer.h"
#include "sql/federation_service.h"
#include "tests/test_util.h"
#include "text/live_corpus.h"
#include "workload/paper_queries.h"
#include "workload/university.h"

/// \file
/// The service's plan cache (DESIGN.md §7, "Plan cache"). A repeated SQL
/// text is served from the cache — a hit reports the very plan object the
/// miss built — and must be byte-identical to a fresh service's run; the
/// cache re-plans when a stored statistic changes or the live document
/// count moves (and not when new statistics arrive), never caches a
/// failure, evicts the least recently used text past its bound without
/// invalidating outcomes, and serves eight threads the rows and meters of
/// serial runs.

namespace textjoin {
namespace {

using textjoin::testing::MakeDoc;
using textjoin::testing::MakeStudentTable;
using textjoin::testing::MercuryDecl;

std::vector<std::string> RowStrings(const QueryOutcome& outcome) {
  std::vector<std::string> rows;
  rows.reserve(outcome.rows.rows.size());
  for (const Row& row : outcome.rows.rows) rows.push_back(RowToString(row));
  return rows;
}

/// A warm service's outcome against a fresh service's: rows, meter, plan
/// rendering and stable EXPLAIN ANALYZE all byte-identical.
void ExpectSameOutcome(const QueryOutcome& got, const QueryOutcome& fresh) {
  EXPECT_EQ(got.rows.schema.ToString(), fresh.rows.schema.ToString());
  EXPECT_EQ(RowStrings(got), RowStrings(fresh));
  EXPECT_EQ(got.meter_delta, fresh.meter_delta);
  EXPECT_EQ(got.chosen_plan, fresh.chosen_plan);
  EXPECT_EQ(ExplainAnalyze(got, RenderMode::kStable),
            ExplainAnalyze(fresh, RenderMode::kStable));
}

UniversityWorkload SmallUniversity() {
  UniversityConfig config;
  config.num_students = 50;
  config.num_faculty = 10;
  config.num_projects = 8;
  config.num_documents = 300;
  auto built = BuildUniversity(config);
  TEXTJOIN_CHECK(built.ok(), "%s", built.status().ToString().c_str());
  return std::move(*built);
}

/// University texts. Several differ only in a literal, which the
/// statistics (and so the plan) depend on: a cache keyed by anything
/// coarser than the exact text would hand one of them another's plan.
const std::vector<std::string>& UniversityTexts() {
  static const std::vector<std::string> texts = {
      "select student.name, mercury.docid from student, mercury where "
      "student.year > 2 and 'caching' in mercury.title and student.name in "
      "mercury.author",
      "select student.name, mercury.docid from student, mercury where "
      "student.year > 2 and 'replication' in mercury.title and student.name "
      "in mercury.author",
      "select student.name, mercury.title from student, mercury where "
      "student.year > 4 and 'text retrieval' in mercury.title and "
      "student.name in mercury.author",
      "select project.member, mercury.docid from project, mercury where "
      "project.sponsor = 'NSF' and 'belief update' in mercury.title and "
      "project.member in mercury.author",
      "select project.member, mercury.docid from project, mercury where "
      "project.sponsor = 'DARPA' and 'belief update' in mercury.title and "
      "project.member in mercury.author",
      "select project.name, mercury.title from project, mercury where "
      "project.name in mercury.title and project.member in mercury.author",
      "select student.name, faculty.name, mercury.docid from student, "
      "faculty, mercury where faculty.dept = 'databases' and student.area "
      "<> faculty.dept and student.name in mercury.author and faculty.name "
      "in mercury.author",
  };
  return texts;
}

/// The paper's Q1-Q5 at 2,000 documents (Q5 with 60 students).
std::vector<PaperScenario> SmallPaperScenarios() {
  std::vector<Result<PaperScenario>> built;
  Q1Config q1;
  q1.num_documents = 2000;
  built.push_back(BuildQ1(q1));
  Q2Config q2;
  q2.num_documents = 2000;
  built.push_back(BuildQ2(q2));
  Q3Config q3;
  q3.num_documents = 2000;
  built.push_back(BuildQ3(q3));
  Q4Config q4;
  q4.num_documents = 2000;
  built.push_back(BuildQ4(q4));
  Q5Config q5;
  q5.num_documents = 2000;
  q5.num_students = 60;
  built.push_back(BuildQ5(q5));
  std::vector<PaperScenario> out;
  for (Result<PaperScenario>& scenario : built) {
    TEXTJOIN_CHECK(scenario.ok(), "%s", scenario.status().ToString().c_str());
    out.push_back(std::move(*scenario));
  }
  return out;
}

TEST(PlanCacheTest, PaperQueriesHitEqualFreshServices) {
  for (const PaperScenario& paper : SmallPaperScenarios()) {
    const Scenario& scenario = paper.scenario;
    const std::string sql = paper.query.ToString();
    SCOPED_TRACE(sql);
    FederationService::Options options;
    options.text = scenario.text;
    options.oracle_stats = false;  // The paper's sampled statistics.
    auto make = [&] {
      return std::make_unique<FederationService>(
          scenario.catalog.get(), scenario.engine.get(), options);
    };

    auto warm = make();
    auto explained_miss = warm->Explain(sql);
    ASSERT_TRUE(explained_miss.ok()) << explained_miss.status().ToString();
    auto first = warm->Run(sql);
    auto hit = warm->Run(sql);
    ASSERT_TRUE(first.ok() && hit.ok());
    EXPECT_EQ(hit->plan, first->plan) << "the repeat was not a cache hit";
    auto explained_hit = warm->Explain(sql);
    ASSERT_TRUE(explained_hit.ok());
    EXPECT_EQ(*explained_hit, *explained_miss);

    auto fresh = make()->Run(sql);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    ExpectSameOutcome(*hit, *fresh);
    ExpectSameOutcome(*first, *fresh);
    auto fresh_explained = make()->Explain(sql);
    ASSERT_TRUE(fresh_explained.ok());
    EXPECT_EQ(*explained_hit, *fresh_explained);
  }
}

TEST(PlanCacheTest, UniversityTextsHitEqualFreshServices) {
  UniversityWorkload uni = SmallUniversity();
  FederationService::Options options;
  options.text = uni.text;  // Oracle statistics, the default.
  FederationService warm(uni.catalog.get(), uni.engine.get(), options);
  // Two passes; the second hits what the first planned, since new keys do
  // not move the generation (NewExactStatisticsKeepCachedPlans holds it).
  std::vector<QueryOutcome> planned;
  for (int pass = 0; pass < 2; ++pass) {
    planned.clear();
    for (const std::string& sql : UniversityTexts()) {
      auto outcome = warm.Run(sql);
      ASSERT_TRUE(outcome.ok()) << sql << ": " << outcome.status().ToString();
      planned.push_back(std::move(*outcome));
    }
  }
  for (size_t i = 0; i < UniversityTexts().size(); ++i) {
    const std::string& sql = UniversityTexts()[i];
    SCOPED_TRACE(sql);
    auto hit = warm.Run(sql);
    ASSERT_TRUE(hit.ok());
    EXPECT_EQ(hit->plan, planned[i].plan) << "the repeat was not a cache hit";
    FederationService fresh(uni.catalog.get(), uni.engine.get(), options);
    auto reference = fresh.Run(sql);
    ASSERT_TRUE(reference.ok());
    ExpectSameOutcome(*hit, *reference);
    auto explained = warm.Explain(sql);
    auto fresh_explained =
        FederationService(uni.catalog.get(), uni.engine.get(), options)
            .Explain(sql);
    ASSERT_TRUE(explained.ok() && fresh_explained.ok());
    EXPECT_EQ(*explained, *fresh_explained);
  }
}

TEST(PlanCacheTest, PreloadThatChangesAStatisticReplans) {
  UniversityWorkload uni = SmallUniversity();
  const std::string& sql = UniversityTexts()[0];
  FederationService::Options options;
  options.text = uni.text;
  options.oracle_stats = false;
  FederationService service(uni.catalog.get(), uni.engine.get(), options);
  auto sampled = service.Run(sql);
  ASSERT_TRUE(sampled.ok());
  ASSERT_EQ(sampled->plan->method.method, JoinMethodKind::kSJRTP)
      << sampled->chosen_plan;

  // A fanout of 10 documents per student makes tuple substitution the
  // cheapest method; the next Run must see it.
  service.stats().SetTextJoinStats("student.name", "author", 0.5, 10.0);
  auto replanned = service.Run(sql);
  ASSERT_TRUE(replanned.ok());
  EXPECT_EQ(replanned->plan->method.method, JoinMethodKind::kTS)
      << replanned->chosen_plan;
  EXPECT_NE(replanned->chosen_plan, sampled->chosen_plan);
  auto explained = service.Explain(sql);
  ASSERT_TRUE(explained.ok());
  EXPECT_NE(explained->find("method=TS"), std::string::npos) << *explained;

  // Storing the value the registry already holds changes nothing, so the
  // plan stays cached.
  const uint64_t generation = service.stats().generation();
  service.stats().SetTextJoinStats("student.name", "author", 0.5, 10.0);
  EXPECT_EQ(service.stats().generation(), generation);
  auto again = service.Run(sql);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again->plan, replanned->plan);
  ExpectSameOutcome(*again, *replanned);
}

/// Statistics a later text inserts leave earlier plans valid: a plan reads
/// only keys that existed when it was made, so the second pass over four
/// texts (two student topics, a project text and the student-faculty
/// shape) hits every plan of the first, under either provider.
void ExpectNewStatisticsKeepCachedPlans(bool oracle_stats) {
  UniversityWorkload uni = SmallUniversity();
  FederationService::Options options;
  options.text = uni.text;
  options.oracle_stats = oracle_stats;
  FederationService service(uni.catalog.get(), uni.engine.get(), options);
  const std::vector<std::string> texts = {
      UniversityTexts()[0], UniversityTexts()[1], UniversityTexts()[3],
      UniversityTexts()[6]};
  std::vector<PlanNodePtr> first;
  for (const std::string& sql : texts) {
    auto outcome = service.Run(sql);
    ASSERT_TRUE(outcome.ok()) << sql << ": " << outcome.status().ToString();
    first.push_back(outcome->plan);
  }
  const uint64_t generation = service.stats().generation();
  for (size_t i = 0; i < texts.size(); ++i) {
    auto again = service.Run(texts[i]);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again->plan, first[i]) << texts[i] << " was re-planned";
  }
  EXPECT_EQ(service.stats().generation(), generation);
}

TEST(PlanCacheTest, NewSampledStatisticsKeepCachedPlans) {
  ExpectNewStatisticsKeepCachedPlans(/*oracle_stats=*/false);
}

TEST(PlanCacheTest, NewExactStatisticsKeepCachedPlans) {
  ExpectNewStatisticsKeepCachedPlans(/*oracle_stats=*/true);
}

/// Two texts that give the alias `s` to different tables. Join statistics
/// are keyed by the table column (student.name, faculty.name), not by the
/// text's `s.name`, so the texts keep apart on one service: under
/// sampling the faculty text reads faculty's own s and f, as a fresh
/// service measures them; under the oracle, alternating the texts changes
/// no stored value, so the generation stays put and the later rounds hit
/// the plans of the first.
TEST(PlanCacheTest, AliasOfTwoTablesKeepsTheirStatisticsApart) {
  UniversityWorkload uni = SmallUniversity();
  const std::string student_sql =
      "select s.name, mercury.docid from student s, mercury where s.name in "
      "mercury.author";
  const std::string faculty_sql =
      "select s.name, mercury.docid from faculty s, mercury where s.name in "
      "mercury.author";
  FederationService::Options options;
  options.text = uni.text;

  options.oracle_stats = false;
  FederationService sampled(uni.catalog.get(), uni.engine.get(), options);
  ASSERT_TRUE(sampled.Run(student_sql).ok());
  auto faculty = sampled.Run(faculty_sql);
  ASSERT_TRUE(faculty.ok()) << faculty.status().ToString();
  FederationService fresh(uni.catalog.get(), uni.engine.get(), options);
  auto reference = fresh.Run(faculty_sql);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  auto got = sampled.stats().GetTextJoinStats("faculty.name", "author");
  auto want = fresh.stats().GetTextJoinStats("faculty.name", "author");
  auto student = sampled.stats().GetTextJoinStats("student.name", "author");
  ASSERT_TRUE(got.ok() && want.ok() && student.ok());
  EXPECT_EQ(got->selectivity, want->selectivity);
  EXPECT_EQ(got->fanout, want->fanout);
  EXPECT_NE(student->fanout, want->fanout)
      << "the two tables measure alike, so this test shows nothing";
  ExpectSameOutcome(*faculty, *reference);

  options.oracle_stats = true;
  FederationService oracle(uni.catalog.get(), uni.engine.get(), options);
  const uint64_t generation = oracle.stats().generation();
  std::vector<PlanNodePtr> first;
  for (int round = 0; round < 3; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    int text = 0;
    for (const std::string* sql : {&student_sql, &faculty_sql}) {
      auto outcome = oracle.Run(*sql);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      if (round == 0) {
        first.push_back(outcome->plan);
      } else {
        EXPECT_EQ(outcome->plan, first[text]) << *sql << " was re-planned";
      }
      ++text;
    }
    EXPECT_EQ(oracle.stats().generation(), generation);
  }
  auto warm = oracle.Run(faculty_sql);
  FederationService fresh_oracle(uni.catalog.get(), uni.engine.get(),
                                 options);
  auto fresh_run = fresh_oracle.Run(faculty_sql);
  ASSERT_TRUE(warm.ok() && fresh_run.ok());
  ExpectSameOutcome(*warm, *fresh_run);
}

TEST(PlanCacheTest, LiveDocumentCountReplans) {
  // One live shard seeded with 48 documents; oracle statistics.
  EpochClock clock;
  LiveCorpus corpus;
  CorpusWriter writer({{&corpus}}, &clock, nullptr);
  const std::vector<std::string> authors = {"Radhika", "Gravano", "Kao"};
  const std::vector<std::string> titles = {"Belief update in knowledge bases",
                                           "Text retrieval systems survey"};
  for (int i = 0; i < 48; ++i) {
    Document doc = MakeDoc("doc" + std::to_string(i), titles[i % titles.size()],
                           {authors[i % authors.size()]});
    ASSERT_TRUE(writer.Seed(std::move(doc)).ok());
  }
  Catalog catalog;
  ASSERT_TRUE(catalog.AddTable(MakeStudentTable()).ok());
  FederationService::Options options;
  options.text = MercuryDecl();
  options.topology.shards.push_back({{{&corpus, nullptr}}});
  options.topology.partitioner = writer.PartitionFn();
  options.topology.global_ordinal = writer.OrdinalFn();
  options.live.emplace();
  options.live->clock = &clock;
  auto fresh_plan = [&](const std::string& sql) {
    FederationService fresh(&catalog, nullptr, options);
    auto outcome = fresh.Run(sql);
    TEXTJOIN_CHECK(outcome.ok(), "%s", outcome.status().ToString().c_str());
    return outcome->chosen_plan;
  };
  const std::string sql =
      "select student.name, mercury.docid from student, mercury where "
      "'belief' in mercury.title and student.name in mercury.author";
  FederationService service(&catalog, nullptr, options);
  auto before = service.Run(sql);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before->chosen_plan, fresh_plan(sql));
  EXPECT_EQ(service.Run(sql)->plan, before->plan);

  // A document that matches none of the query's terms leaves every
  // statistic, and so the generation, as it was; only D moves.
  const uint64_t generation = service.stats().generation();
  ASSERT_TRUE(
      writer.Insert(MakeDoc("doc48", "Parallel execution", {"Nobody"})).ok());
  auto after = service.Run(sql);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(service.stats().generation(), generation);
  const std::string expected = fresh_plan(sql);
  EXPECT_NE(expected, before->chosen_plan)
      << "the estimates do not read D, so this test shows nothing";
  EXPECT_EQ(after->chosen_plan, expected);
  EXPECT_EQ(RowStrings(*after), RowStrings(*before));
}

TEST(PlanCacheTest, FailuresAreNotCached) {
  UniversityWorkload uni = SmallUniversity();
  FederationService::Options options;
  options.text = uni.text;
  options.oracle_stats = false;
  {
    FederationService service(uni.catalog.get(), uni.engine.get(), options);
    const std::string garbage = "select from where mercury";
    auto first = service.Run(garbage);
    auto second = service.Run(garbage);
    ASSERT_FALSE(first.ok());
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(second.status().ToString(), first.status().ToString());
    auto explained = service.Explain(garbage);
    ASSERT_FALSE(explained.ok());
    EXPECT_EQ(explained.status().ToString(), first.status().ToString());
  }
  {
    // SJ returns only the document side, and this query reads
    // student.name above the foreign join: the forced method is refused.
    options.enumerator.forced_method = JoinMethodKind::kSJ;
    FederationService service(uni.catalog.get(), uni.engine.get(), options);
    const std::string& sql = UniversityTexts()[0];
    auto first = service.Run(sql);
    auto second = service.Run(sql);
    ASSERT_FALSE(first.ok());
    ASSERT_FALSE(second.ok());
    EXPECT_EQ(first.status().code(), StatusCode::kInvalidArgument)
        << first.status().ToString();
    EXPECT_EQ(second.status().ToString(), first.status().ToString());
    auto explained = service.Explain(sql);
    ASSERT_FALSE(explained.ok());
    EXPECT_EQ(explained.status().ToString(), first.status().ToString());
    // The same service still plans what SJ applies to.
    auto docid_only = service.Run(
        "select mercury.docid from student, mercury where "
        "'caching' in mercury.title and student.name in mercury.author");
    ASSERT_TRUE(docid_only.ok()) << docid_only.status().ToString();
    EXPECT_EQ(docid_only->plan->method.method, JoinMethodKind::kSJ);
  }
}

TEST(PlanCacheTest, EvictionIsLeastRecentlyUsedAndOutcomesSurviveIt) {
  UniversityWorkload uni = SmallUniversity();
  FederationService::Options options;
  options.text = uni.text;
  options.oracle_stats = false;
  FederationService service(uni.catalog.get(), uni.engine.get(), options);
  // Distinct texts of one shape: the year cut-off is part of the text.
  auto text = [](size_t i) {
    return "select student.name, mercury.docid from student, mercury where "
           "student.name in mercury.author and student.year > " +
           std::to_string(i);
  };
  auto run = [&](size_t i) {
    auto outcome = service.Run(text(i));
    TEXTJOIN_CHECK(outcome.ok(), "%s", outcome.status().ToString().c_str());
    return std::move(*outcome);
  };
  constexpr size_t kBound = FederationService::kPlanCacheEntries;
  const QueryOutcome first = run(0);
  const std::string rendered = ExplainAnalyze(first, RenderMode::kStable);
  const PlanNodePtr plan_one = run(1).plan;
  // Fill the cache, then use text 0 again: a hit, and now the most recent.
  for (size_t i = 2; i < kBound; ++i) run(i);
  EXPECT_EQ(run(0).plan, first.plan);
  // One more text evicts the least recently used, text 1, not text 0.
  run(kBound);
  EXPECT_EQ(run(0).plan, first.plan);
  EXPECT_NE(run(1).plan, plan_one);

  // Push text 0 out, then render the outcome whose entry is gone.
  for (size_t i = kBound + 1; i <= 2 * kBound; ++i) run(i);
  const QueryOutcome replanned = run(0);
  EXPECT_NE(replanned.plan, first.plan);
  EXPECT_EQ(ExplainAnalyze(first, RenderMode::kStable), rendered);
  EXPECT_EQ(ExplainAnalyze(replanned, RenderMode::kStable), rendered);
}

/// Eight threads share one service and run the texts in staggered orders;
/// every outcome must carry the rows and meter of a serial run.
void ExpectConcurrentRunsMatchSerial(bool oracle_stats) {
  UniversityWorkload uni = SmallUniversity();
  FederationService::Options options;
  options.text = uni.text;
  options.oracle_stats = oracle_stats;
  const std::vector<std::string>& texts = UniversityTexts();
  std::vector<std::vector<std::string>> rows;
  std::vector<AccessMeter> meters;
  {
    FederationService serial(uni.catalog.get(), uni.engine.get(), options);
    for (const std::string& sql : texts) {
      auto outcome = serial.Run(sql);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      rows.push_back(RowStrings(*outcome));
      meters.push_back(outcome->meter_delta);
    }
  }
  FederationService shared(uni.catalog.get(), uni.engine.get(), options);
  if (!oracle_stats) {
    // Sampled statistics depend on the order in which predicates are first
    // seen, so sample them in the serial order. Then changing a statistic
    // no text reads moves the generation: every entry is stale, and the
    // threads' first runs race to re-plan the same texts.
    for (const std::string& sql : texts) ASSERT_TRUE(shared.Run(sql).ok());
    shared.stats().SetTextSelectionStats("unread", "title", 1.0, 1.0);
    shared.stats().SetTextSelectionStats("unread", "title", 2.0, 2.0);
  }
  constexpr int kThreads = 8;
  constexpr size_t kRunsPerThread = 24;
  std::atomic<size_t> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t k = 0; k < kRunsPerThread; ++k) {
        const size_t i = (static_cast<size_t>(t) * 3 + k) % texts.size();
        auto outcome = shared.Run(texts[i]);
        if (!outcome.ok() || RowStrings(*outcome) != rows[i] ||
            outcome->meter_delta != meters[i]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

TEST(PlanCacheStressTest, SampledStatisticsMatchSerialRuns) {
  ExpectConcurrentRunsMatchSerial(/*oracle_stats=*/false);
}

TEST(PlanCacheStressTest, OracleStatisticsMatchSerialRuns) {
  ExpectConcurrentRunsMatchSerial(/*oracle_stats=*/true);
}

}  // namespace
}  // namespace textjoin
