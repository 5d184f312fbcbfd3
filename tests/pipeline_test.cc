#include "core/pipeline.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "connector/chaos.h"
#include "connector/remote_text_source.h"
#include "core/enumerator.h"
#include "core/executor.h"
#include "core/statistics.h"
#include "sql/parser.h"
#include "tests/test_util.h"

namespace textjoin {
namespace {

using pipeline::DocFetcher;
using pipeline::IsPlaceholderDoc;
using pipeline::PipelineProfile;
using pipeline::StageDesc;
using pipeline::StageKind;
using pipeline::StageScheduler;
using textjoin::testing::MakeSmallEngine;
using textjoin::testing::MakeStudentTable;
using textjoin::testing::MercuryDecl;

// ---------------------------------------------------------- Compositions
//
// Golden tests: each join method runs a fixed stage composition, read back
// from the stage profile of an execution. A change here is a change to how
// a method executes — update deliberately.

class LoweringTest : public ::testing::Test {
 protected:
  LoweringTest()
      : table_(MakeStudentTable()),
        engine_(MakeSmallEngine()),
        source_(engine_.get()) {}

  ForeignJoinSpec BaseSpec() const {
    ForeignJoinSpec spec;
    spec.left_schema = table_->schema();
    spec.text = MercuryDecl();
    spec.selections = {{"belief", "title"}};
    spec.joins = {{"student.name", "author"},
                  {"student.advisor", "author"}};
    return spec;
  }

  /// "SJ: DistinctKeys(all-preds) -> QueryBuild(or-batch+resplit) -> ...":
  /// the stages the method's execution registered, in order.
  std::string Composition(JoinMethodKind method, const ForeignJoinSpec& spec,
                          PredicateMask mask = 0) {
    PipelineProfile profile;
    auto joined = ExecuteForeignJoin(method, spec, table_->rows(), source_,
                                     mask, nullptr, {}, &profile);
    TEXTJOIN_CHECK(joined.ok(), "%s", joined.status().ToString().c_str());
    std::string out = std::string(JoinMethodName(method)) + ": ";
    for (size_t i = 0; i < profile.stages.size(); ++i) {
      if (i != 0) out += " -> ";
      out += profile.stages[i].desc.ToString();
    }
    return out;
  }

  /// Executes an inapplicable composition: it must fail without reaching
  /// the source.
  bool Rejected(JoinMethodKind method, const ForeignJoinSpec& spec,
                PredicateMask mask = 0) {
    PipelineProfile profile;
    const bool ok = ExecuteForeignJoin(method, spec, table_->rows(), source_,
                                       mask, nullptr, {}, &profile)
                        .ok();
    EXPECT_EQ(source_.meter(), AccessMeter{}) << JoinMethodName(method);
    EXPECT_TRUE(profile.empty()) << JoinMethodName(method);
    return !ok;
  }

  std::unique_ptr<Table> table_;
  std::unique_ptr<TextEngine> engine_;
  RemoteTextSource source_;
};

TEST_F(LoweringTest, TupleSubstitution) {
  EXPECT_EQ(Composition(JoinMethodKind::kTS, BaseSpec()),
            "TS: DistinctKeys(all-preds) -> QueryBuild(per-combination) -> "
            "SearchDispatch(per-combination) -> Fetch(long-form) -> "
            "Assemble(group-order)");
}

TEST_F(LoweringTest, TupleSubstitutionDocidOnly) {
  ForeignJoinSpec spec = BaseSpec();
  spec.need_document_fields = false;
  EXPECT_EQ(Composition(JoinMethodKind::kTS, spec),
            "TS: DistinctKeys(all-preds) -> QueryBuild(per-combination) -> "
            "SearchDispatch(per-combination) -> Fetch(docid-only) -> "
            "Assemble(group-order)");
}

TEST_F(LoweringTest, Rtp) {
  EXPECT_EQ(Composition(JoinMethodKind::kRTP, BaseSpec()),
            "RTP: QueryBuild(selections-only) -> SearchDispatch(single) -> "
            "Fetch(long-form) -> Match(string-match) -> Assemble(doc-order)");
}

TEST_F(LoweringTest, SemiJoin) {
  ForeignJoinSpec spec = BaseSpec();
  spec.left_columns_needed = false;
  spec.need_document_fields = false;
  EXPECT_EQ(Composition(JoinMethodKind::kSJ, spec),
            "SJ: DistinctKeys(all-preds) -> QueryBuild(or-batch+resplit) -> "
            "SearchDispatch(per-batch) -> Fetch(docid-only,dedup) -> "
            "Assemble(null-left,first-seen)");
}

TEST_F(LoweringTest, SemiJoinRtp) {
  EXPECT_EQ(Composition(JoinMethodKind::kSJRTP, BaseSpec()),
            "SJ+RTP: DistinctKeys(all-preds) -> "
            "QueryBuild(or-batch+resplit) -> SearchDispatch(per-batch) -> "
            "Fetch(long-form,dedup) -> Match(string-match) -> "
            "Assemble(first-seen)");
}

TEST_F(LoweringTest, ProbeTupleSubstitution) {
  EXPECT_EQ(Composition(JoinMethodKind::kPTS, BaseSpec(), 0b01),
            "P+TS: DistinctKeys(all-preds) -> ProbeFilter(cache,{1}) -> "
            "QueryBuild(per-combination) -> SearchDispatch(serial-chain) -> "
            "Fetch(long-form) -> Assemble(group-order)");
}

TEST_F(LoweringTest, ProbeRtp) {
  EXPECT_EQ(Composition(JoinMethodKind::kPRTP, BaseSpec(), 0b10),
            "P+RTP: DistinctKeys(probe-cols,{2}) -> QueryBuild(per-probe) -> "
            "SearchDispatch(per-probe) -> Fetch(long-form,dedup) -> "
            "Match(residual-preds) -> Assemble(group-order)");
}

TEST_F(LoweringTest, ValidatesMethodPreconditions) {
  ForeignJoinSpec no_sel = BaseSpec();
  no_sel.selections.clear();
  EXPECT_TRUE(Rejected(JoinMethodKind::kRTP, no_sel));

  // Pure SJ cannot restore outer columns.
  EXPECT_TRUE(Rejected(JoinMethodKind::kSJ, BaseSpec()));

  // Probe mask on a non-probing method / missing mask on a probing one.
  EXPECT_TRUE(Rejected(JoinMethodKind::kTS, BaseSpec(), 0b01));
  EXPECT_TRUE(Rejected(JoinMethodKind::kPTS, BaseSpec(), 0));
}

// ------------------------------------------------------------ Scheduler

class SchedulerTest : public ::testing::Test {
 protected:
  SchedulerTest() : engine_(MakeSmallEngine()), source_(engine_.get()) {}

  std::unique_ptr<TextEngine> engine_;
  RemoteTextSource source_;
};

TEST_F(SchedulerTest, RunsEveryUnitAndAggregatesCounts) {
  StageScheduler sched(nullptr, source_, FaultPolicy{});
  auto stage = sched.AddStage({StageKind::kSearchDispatch, "test"});
  std::atomic<int> ran{0};
  for (uint64_t i = 0; i < 10; ++i) {
    sched.Spawn(stage, i, [&ran] {
      ran.fetch_add(1);
      return Status::OK();
    });
  }
  ASSERT_TRUE(sched.Wait().ok());
  EXPECT_EQ(ran.load(), 10);
  PipelineProfile profile = sched.Profile({stage});
  ASSERT_EQ(profile.stages.size(), 1u);
  EXPECT_EQ(profile.stages[0].units, 10u);
}

TEST_F(SchedulerTest, FailureSelectionIsDeterministic) {
  // Several units fail; Wait() must report the minimum (stage rank,
  // ordinal) failure regardless of execution order.
  for (int trial = 0; trial < 3; ++trial) {
    ThreadPool pool(3);
    StageScheduler sched(&pool, source_, FaultPolicy{});
    auto early = sched.AddStage({StageKind::kSearchDispatch, "early"});
    auto late = sched.AddStage({StageKind::kFetch, "late"});
    sched.Spawn(late, 0, [] { return Status::Unavailable("late-0"); });
    sched.Spawn(early, 7, [] { return Status::Unavailable("early-7"); });
    sched.Spawn(early, 3, [] { return Status::Unavailable("early-3"); });
    sched.Spawn(early, 5, [] { return Status::OK(); });
    Status status = sched.Wait();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.message(), "early-3");
  }
}

TEST_F(SchedulerTest, AllUnitsRunEvenAfterAFailure) {
  StageScheduler sched(nullptr, source_, FaultPolicy{});
  auto stage = sched.AddStage({StageKind::kSearchDispatch, "test"});
  std::atomic<int> ran{0};
  sched.Spawn(stage, 0, [] { return Status::Unavailable("boom"); });
  for (uint64_t i = 1; i < 5; ++i) {
    sched.Spawn(stage, i, [&ran] {
      ran.fetch_add(1);
      return Status::OK();
    });
  }
  EXPECT_FALSE(sched.Wait().ok());
  EXPECT_EQ(ran.load(), 4);
}

TEST_F(SchedulerTest, UnitsMaySpawnDownstreamUnits) {
  // The barrier-removal primitive: a unit enqueues follow-on work that the
  // same Wait() drains.
  ThreadPool pool(2);
  StageScheduler sched(&pool, source_, FaultPolicy{});
  auto search = sched.AddStage({StageKind::kSearchDispatch, "s"});
  auto fetch = sched.AddStage({StageKind::kFetch, "f"});
  std::atomic<int> fetched{0};
  for (uint64_t i = 0; i < 4; ++i) {
    sched.Spawn(search, i, [&sched, fetch, &fetched, i] {
      sched.Spawn(fetch, i, [&fetched] {
        fetched.fetch_add(1);
        return Status::OK();
      });
      return Status::OK();
    });
  }
  ASSERT_TRUE(sched.Wait().ok());
  EXPECT_EQ(fetched.load(), 4);
  EXPECT_EQ(sched.Profile({fetch}).stages[0].units, 4u);
}

TEST_F(SchedulerTest, SearchChargesTheStageProfile) {
  StageScheduler sched(nullptr, source_, FaultPolicy{});
  auto stage = sched.AddStage({StageKind::kSearchDispatch, "s"});
  TextQueryPtr query = TextQuery::Term("title", "belief");
  auto result = sched.Search(stage, *query);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 2u);  // d1, d4
  PipelineProfile profile = sched.Profile({stage});
  EXPECT_EQ(profile.stages[0].invocations, 1u);
  EXPECT_EQ(profile.stages[0].short_docs, 2u);
}

TEST_F(SchedulerTest, DocFetcherLeavesPlaceholderOnAbsorbedFailure) {
  ChaosOptions chaos;
  chaos.content_keyed = true;
  chaos.fetch_failure_rate = 1.0;
  ChaosTextSource flaky(&source_, chaos);
  AtomicDegradation sink;
  FaultPolicy policy;
  policy.mode = FailureMode::kBestEffort;
  policy.degradation = &sink;
  StageScheduler sched(nullptr, flaky, policy);
  auto stage = sched.AddStage({StageKind::kFetch, "f"});
  const TextRelationDecl text = MercuryDecl();
  DocFetcher fetcher(sched, stage, text, /*long_form=*/true);
  const size_t slot = fetcher.Fetch({"d1"}).at(0);
  ASSERT_TRUE(sched.Wait().ok());  // Failure absorbed under best-effort.
  EXPECT_TRUE(IsPlaceholderDoc(fetcher.doc(slot)));
  DegradationReport report = sink.Snapshot();
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.skipped_operations, 1u);
}

/// Counts every Fetch per docid and fails the fetches of one docid.
class FetchCountingSource : public TextSourceDecorator {
 public:
  FetchCountingSource(TextSource* inner, std::string failing)
      : TextSourceDecorator(inner), failing_(std::move(failing)) {}

  Result<std::vector<std::string>> Search(
      const TextQuery& query) const override {
    return inner_->Search(query);
  }
  Result<Document> Fetch(const std::string& docid) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++fetches_[docid];
    }
    if (docid == failing_) return Status::Unavailable("fetch failed");
    return inner_->Fetch(docid);
  }
  std::map<std::string, int> fetches() const {
    std::lock_guard<std::mutex> lock(mu_);
    return fetches_;
  }

 private:
  std::string failing_;
  mutable std::mutex mu_;
  mutable std::map<std::string, int> fetches_;
};

class DedupFetchTest : public ::testing::TestWithParam<int> {};

TEST_P(DedupFetchTest, FetchOnceFetchesEachDocidOnceAndSharesItsSlot) {
  const int parallelism = GetParam();
  auto engine = MakeSmallEngine();
  RemoteTextSource metered(engine.get());
  FetchCountingSource source(&metered, /*failing=*/"d3");
  AtomicDegradation sink;
  FaultPolicy policy;
  policy.mode = FailureMode::kBestEffort;
  policy.degradation = &sink;
  std::unique_ptr<ThreadPool> pool;
  if (parallelism > 1) pool = std::make_unique<ThreadPool>(parallelism - 1);
  StageScheduler sched(pool.get(), source, policy);
  auto request = sched.AddStage({StageKind::kSearchDispatch, "r"});
  auto fetch = sched.AddStage({StageKind::kFetch, "f"});
  const TextRelationDecl text = MercuryDecl();
  DocFetcher fetcher(sched, fetch, text, /*long_form=*/true);

  // Sixteen units on the pool, each requesting a window of three docids
  // that overlaps its neighbours', one of them twice.
  const std::vector<std::string> docids = {"d1", "d2", "d3", "d4", "d5",
                                           "d6"};
  constexpr size_t kUnits = 16;
  std::vector<std::vector<std::string>> requested(kUnits);
  std::vector<std::vector<size_t>> slots(kUnits);
  for (size_t u = 0; u < kUnits; ++u) {
    for (size_t k = 0; k < 3; ++k) {
      requested[u].push_back(docids[(u + k) % docids.size()]);
    }
    requested[u].push_back(requested[u][0]);
    sched.Spawn(request, u, [&, u] {
      slots[u] = fetcher.FetchOnce(requested[u]);
      return Status::OK();
    });
  }
  ASSERT_TRUE(sched.Wait().ok());  // d3's failure absorbed under best-effort.

  EXPECT_EQ(fetcher.size(), docids.size());
  std::map<std::string, size_t> slot_of;
  for (size_t u = 0; u < kUnits; ++u) {
    ASSERT_EQ(slots[u].size(), requested[u].size());
    for (size_t i = 0; i < slots[u].size(); ++i) {
      const auto [it, first] = slot_of.try_emplace(requested[u][i],
                                                   slots[u][i]);
      EXPECT_EQ(it->second, slots[u][i]) << requested[u][i];
    }
  }
  for (const auto& [docid, slot] : slot_of) {
    const Document& doc = fetcher.doc(slot);
    if (docid == "d3") {
      EXPECT_TRUE(IsPlaceholderDoc(doc));
    } else {
      EXPECT_EQ(doc.docid, docid);
    }
  }
  std::map<std::string, int> once;
  for (const std::string& docid : docids) once[docid] = 1;
  EXPECT_EQ(source.fetches(), once);
  EXPECT_EQ(metered.meter().long_docs, docids.size() - 1);
  EXPECT_EQ(sched.Profile({fetch}).stages[0].units, docids.size());
  const DegradationReport report = sink.Snapshot();
  EXPECT_FALSE(report.complete);
  EXPECT_EQ(report.skipped_operations, 1u);
}

INSTANTIATE_TEST_SUITE_P(Parallelism, DedupFetchTest,
                         ::testing::Values(1, 4, 8));

// ------------------------------------------- Byte-identity property test
//
// All six methods, at parallelism 1 / 4 / 8, under content-keyed chaos
// (the same operations fail at any schedule): rows, meter totals, and the
// degradation report must be byte-identical to the serial execution.

struct MethodCase {
  JoinMethodKind method;
  PredicateMask mask;
};

struct RunOutput {
  std::vector<std::string> rows;
  AccessMeter meter;
  DegradationReport degradation;
  bool ok = false;
};

class ByteIdentityTest
    : public ::testing::TestWithParam<std::tuple<int, uint64_t, double>> {};

TEST_P(ByteIdentityTest, ParallelMatchesSerial) {
  const auto& [parallelism, seed, failure_rate] = GetParam();
  const std::vector<MethodCase> cases = {
      {JoinMethodKind::kTS, 0},    {JoinMethodKind::kRTP, 0},
      {JoinMethodKind::kSJ, 0},    {JoinMethodKind::kSJRTP, 0},
      {JoinMethodKind::kPTS, 0b01}, {JoinMethodKind::kPRTP, 0b10},
  };
  auto engine = MakeSmallEngine();
  auto table = MakeStudentTable();

  auto run = [&](const MethodCase& mc, int par) {
    ForeignJoinSpec spec;
    spec.left_schema = table->schema();
    spec.text = MercuryDecl();
    spec.selections = {{"belief", "title"}};
    spec.joins = {{"student.name", "author"},
                  {"student.advisor", "author"}};
    if (mc.method == JoinMethodKind::kSJ) {
      spec.left_columns_needed = false;
      spec.need_document_fields = false;
    }
    RemoteTextSource metered(engine.get());
    ChaosOptions chaos;
    chaos.seed = seed;
    chaos.content_keyed = true;
    chaos.search_failure_rate = failure_rate;
    chaos.fetch_failure_rate = failure_rate;
    ChaosTextSource flaky(&metered, chaos);
    AtomicDegradation sink;
    FaultPolicy policy;
    policy.mode = FailureMode::kBestEffort;
    policy.degradation = &sink;
    std::unique_ptr<ThreadPool> pool;
    if (par > 1) pool = std::make_unique<ThreadPool>(par - 1);
    auto result = ExecuteForeignJoin(mc.method, spec, table->rows(), flaky,
                                     mc.mask, pool.get(), policy);
    RunOutput out;
    out.ok = result.ok();
    if (result.ok()) {
      for (const Row& row : result->rows) {
        out.rows.push_back(RowToString(row));
      }
    }
    out.meter = metered.meter();
    out.degradation = sink.Snapshot();
    return out;
  };

  for (const MethodCase& mc : cases) {
    const RunOutput serial = run(mc, 1);
    const RunOutput parallel = run(mc, parallelism);
    const std::string label = std::string(JoinMethodName(mc.method)) +
                              " seed=" + std::to_string(seed);
    ASSERT_EQ(parallel.ok, serial.ok) << label;
    EXPECT_EQ(parallel.rows, serial.rows) << label;
    EXPECT_EQ(parallel.meter, serial.meter)
        << label << "\n  parallel: " << parallel.meter.ToString()
        << "\n  serial:   " << serial.meter.ToString();
    EXPECT_EQ(parallel.degradation.complete, serial.degradation.complete)
        << label;
    EXPECT_EQ(parallel.degradation.skipped_operations,
              serial.degradation.skipped_operations)
        << label;
    EXPECT_EQ(parallel.degradation.skipped_batches,
              serial.degradation.skipped_batches)
        << label;
    EXPECT_EQ(parallel.degradation.batch_resplits,
              serial.degradation.batch_resplits)
        << label;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ByteIdentityTest,
    ::testing::Combine(::testing::Values(4, 8),
                       ::testing::Values(1u, 7u, 23u),
                       ::testing::Values(0.0, 0.35)));

// --------------------------------------------------- EXPLAIN ANALYZE

TEST(PipelineExplainTest, AnalyzeRendersPerStageLines) {
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
  const std::string text = ExplainAnalyze(**plan, *query, profile);
  // The foreign-join node carries one indented line per pipeline stage,
  // with wall-clock and (where charged) meter attribution.
  EXPECT_NE(text.find("| SearchDispatch("), std::string::npos) << text;
  EXPECT_NE(text.find("| Assemble("), std::string::npos) << text;
  EXPECT_NE(text.find("wall="), std::string::npos) << text;
  EXPECT_NE(text.find("inv="), std::string::npos) << text;
}

}  // namespace
}  // namespace textjoin
