#include "sql/federation_service.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "connector/corpus_writer.h"
#include "connector/sharding.h"
#include "connector/text_cache.h"
#include "core/executor.h"
#include "core/join_methods.h"
#include "relational/catalog.h"
#include "tests/test_util.h"
#include "text/engine.h"
#include "text/live_corpus.h"
#include "workload/traffic.h"

/// Service-level snapshot-consistency wall (DESIGN.md §16): every join
/// method x parallelism, run against a LIVE sharded corpus while a writer
/// storm and chaos-faulted merges race the query, must produce rows AND
/// meter charges byte-identical to a serial replay against the frozen
/// corpus of the epoch the query pinned. Plus: the cache reconciliation
/// proof (writes invalidate exactly the affected keys), the configurations
/// a live service refuses, the "| corpus" EXPLAIN ANALYZE line,
/// merge-worker drain, and the write-mix traffic report.

namespace textjoin {
namespace {

using textjoin::testing::MakeDoc;
using textjoin::testing::MakeStudentTable;
using textjoin::testing::MercuryDecl;

/// A semi-join-shaped query (text-only output + selection): the one shape
/// every Section 3 method applies to, so the grid can pin all six.
const char* const kGridSql =
    "select mercury.docid from student, mercury "
    "where student.name in mercury.author and 'belief' in mercury.title";

const JoinMethodKind kAllMethods[] = {
    JoinMethodKind::kTS,  JoinMethodKind::kRTP, JoinMethodKind::kSJ,
    JoinMethodKind::kSJRTP, JoinMethodKind::kPTS, JoinMethodKind::kPRTP,
};

/// A live sharded deployment: shard replicas + whole-corpus mirror, one
/// clock, one writer — seeded with the 48-document medium corpus the
/// sharding tests use.
struct LiveEnv {
  std::vector<std::unique_ptr<LiveCorpus>> owned;
  LiveCorpus* mirror = nullptr;
  EpochClock clock;
  std::unique_ptr<CorpusWriter> writer;
  BackendTopology topology;
  Catalog catalog;
};

std::unique_ptr<LiveEnv> MakeLiveEnv(size_t num_shards, size_t num_replicas,
                                     std::shared_ptr<TextCache> cache =
                                         nullptr) {
  auto env = std::make_unique<LiveEnv>();
  std::vector<std::vector<LiveCorpus*>> shards(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    BackendTopology::Shard shard;
    for (size_t r = 0; r < num_replicas; ++r) {
      env->owned.push_back(std::make_unique<LiveCorpus>());
      env->owned.back()->set_exhaustive_eval(true);
      shards[s].push_back(env->owned.back().get());
      shard.replicas.push_back({env->owned.back().get(), nullptr});
    }
    env->topology.shards.push_back(std::move(shard));
  }
  env->owned.push_back(std::make_unique<LiveCorpus>());
  env->owned.back()->set_exhaustive_eval(true);
  env->mirror = env->owned.back().get();
  env->writer = std::make_unique<CorpusWriter>(std::move(shards), &env->clock,
                                               std::move(cache), env->mirror);
  env->topology.partitioner = env->writer->PartitionFn();
  env->topology.global_ordinal = env->writer->OrdinalFn();

  const std::vector<std::string> authors = {"Radhika", "Gravano", "Kao",
                                            "Smith",   "Yan",     "Garcia",
                                            "Ullman",  "Widom"};
  const std::vector<std::string> titles = {
      "Belief update in knowledge bases", "Text retrieval systems survey",
      "Belief revision and update",       "Query optimization for text",
      "Distributed systems overview",     "Information filtering",
      "Belief networks for retrieval",    "Parallel query execution"};
  for (int i = 0; i < 48; ++i) {
    Document doc = MakeDoc("doc" + std::to_string(i), titles[i % titles.size()],
                           {authors[i % authors.size()],
                            authors[(i * 3 + 1) % authors.size()]},
                           i % 2 == 0 ? "1994" : "1993");
    auto seeded = env->writer->Seed(std::move(doc));
    TEXTJOIN_CHECK(seeded.ok(), "%s", seeded.ToString().c_str());
  }
  TEXTJOIN_CHECK(env->catalog.AddTable(MakeStudentTable()).ok(),
                 "catalog seed");
  return env;
}

FederationService::Options LiveOptions(LiveEnv& env, JoinMethodKind method,
                                       int parallelism) {
  FederationService::Options options;
  options.text = MercuryDecl();
  options.topology = env.topology;
  options.enumerator.forced_method = method;
  options.parallelism = parallelism;
  options.live.emplace();
  options.live->clock = &env.clock;
  return options;
}

std::vector<std::string> RowStrings(const QueryOutcome& outcome) {
  std::vector<std::string> rows;
  for (const Row& row : outcome.rows.rows) rows.push_back(RowToString(row));
  return rows;
}

/// Serial replay: freezes the mirror's snapshot at `epoch` into a plain
/// TextEngine and runs the same query on a single-backend service — the
/// reference the live outcome must match byte for byte.
Result<QueryOutcome> ReplayAtEpoch(LiveEnv& env, uint64_t epoch,
                                   const std::string& sql,
                                   JoinMethodKind method, int parallelism) {
  auto snapshot = env.mirror->Snapshot(epoch);
  TextEngine frozen;
  frozen.set_exhaustive_eval(true);
  for (Document& doc : snapshot->VisibleDocuments()) {
    auto added = frozen.AddDocument(std::move(doc));
    TEXTJOIN_CHECK(added.ok(), "%s", added.status().ToString().c_str());
  }
  FederationService::Options options;
  options.text = MercuryDecl();
  options.enumerator.forced_method = method;
  options.parallelism = parallelism;
  FederationService reference(&env.catalog, &frozen, options);
  return reference.Run(sql);
}

/// One storm round: mutations (inserts that actually match the grid query,
/// updates, deletes) racing the caller's queries, with merge passes —
/// including faults at both publish boundaries — interleaved throughout.
void StormRound(LiveEnv& env, int round) {
  const std::string tag = "storm-" + std::to_string(round) + "-";
  for (int k = 0; k < 8; ++k) {
    const std::string docid = tag + std::to_string(k);
    switch (k % 4) {
      case 0:
      case 1: {
        auto r = env.writer->Insert(
            MakeDoc(docid, "Belief storm entry " + std::to_string(k),
                    {k % 2 == 0 ? "Gravano" : "Smith"}));
        TEXTJOIN_CHECK(r.ok(), "%s", r.status().ToString().c_str());
        break;
      }
      case 2: {
        auto r = env.writer->Update(
            MakeDoc("doc" + std::to_string((round * 7 + k) % 48),
                    "Belief rewritten in round " + std::to_string(round),
                    {"Kao"}));
        TEXTJOIN_CHECK(r.ok(), "%s", r.status().ToString().c_str());
        break;
      }
      case 3: {
        auto r = env.writer->Delete(tag + std::to_string(k - 3));
        TEXTJOIN_CHECK(r.ok(), "%s", r.status().ToString().c_str());
        break;
      }
    }
    const MergeFault fault = k % 3 == 0   ? MergeFault::kNone
                             : k % 3 == 1 ? MergeFault::kAbortBeforePublish
                                          : MergeFault::kSkipPrune;
    for (LiveCorpus* corpus : env.writer->AllCorpora()) {
      corpus->MergePass(fault);
    }
  }
}

// ---------------------------------------------------------------------------
// The snapshot-consistency grid

TEST(MutationGridTest, MethodsTimesParallelismReplayByteIdentically) {
  for (const JoinMethodKind method : kAllMethods) {
    for (const int parallelism : {1, 4, 8}) {
      auto env = MakeLiveEnv(/*num_shards=*/2, /*num_replicas=*/1);
      const std::string cell = std::string(JoinMethodName(method)) + " x" +
                               std::to_string(parallelism);
      for (int round = 0; round < 2; ++round) {
        // A fresh service per round pins statistics at the round's epoch,
        // so the serial replay sees the same oracle numbers.
        FederationService service(&env->catalog, nullptr,
                                  LiveOptions(*env, method, parallelism));
        std::thread storm([&env, round] { StormRound(*env, round); });
        auto live = service.Run(kGridSql);
        storm.join();
        ASSERT_TRUE(live.ok()) << cell << ": " << live.status().ToString();
        ASSERT_TRUE(live->corpus.mutable_corpus) << cell;
        const uint64_t epoch = live->corpus.epoch;
        EXPECT_LE(epoch, env->clock.published()) << cell;

        auto replay = ReplayAtEpoch(*env, epoch, kGridSql, method,
                                    parallelism);
        ASSERT_TRUE(replay.ok()) << cell << ": "
                                 << replay.status().ToString();
        EXPECT_EQ(RowStrings(*live), RowStrings(*replay))
            << cell << " epoch=" << epoch;
        EXPECT_EQ(live->meter_delta, replay->meter_delta)
            << cell << " epoch=" << epoch
            << "\n  live:   " << live->meter_delta.ToString()
            << "\n  replay: " << replay->meter_delta.ToString();
        EXPECT_EQ(live->chosen_plan, replay->chosen_plan) << cell;
      }
    }
  }
}

// A query admitted BEFORE a write, racing it, still replays against its
// pinned epoch even when the write commits mid-flight — run many times to
// shake interleavings (each run is cheap).
TEST(MutationGridTest, RacingWritesNeverTearAQuery) {
  auto env = MakeLiveEnv(/*num_shards=*/2, /*num_replicas=*/2);
  for (int round = 0; round < 6; ++round) {
    FederationService service(
        &env->catalog, nullptr,
        LiveOptions(*env, JoinMethodKind::kSJRTP, /*parallelism=*/4));
    std::thread storm([&env, round] { StormRound(*env, 100 + round); });
    std::vector<Result<QueryOutcome>> outcomes;
    for (int q = 0; q < 3; ++q) outcomes.push_back(service.Run(kGridSql));
    storm.join();
    for (auto& live : outcomes) {
      ASSERT_TRUE(live.ok()) << live.status().ToString();
      auto replay = ReplayAtEpoch(*env, live->corpus.epoch, kGridSql,
                                  JoinMethodKind::kSJRTP, 4);
      ASSERT_TRUE(replay.ok()) << replay.status().ToString();
      EXPECT_EQ(RowStrings(*live), RowStrings(*replay));
      EXPECT_EQ(live->meter_delta, replay->meter_delta);
    }
  }
}

// ---------------------------------------------------------------------------
// Cache reconciliation: surgical, not scorched-earth

const char* const kBeliefSql =
    "select mercury.docid from student, mercury "
    "where student.name in mercury.author and 'belief' in mercury.title";
const char* const kFilteringSql =
    "select mercury.docid from student, mercury "
    "where student.name in mercury.author and 'filtering' in mercury.title";

TEST(CacheReconciliationTest, WritesInvalidateExactlyTheAffectedKeys) {
  auto cache = std::make_shared<TextCache>(CacheOptions{});
  auto env = MakeLiveEnv(/*num_shards=*/1, /*num_replicas=*/1, cache);
  FederationService::Options options =
      LiveOptions(*env, JoinMethodKind::kSJRTP, /*parallelism=*/1);
  options.shared_cache = cache;
  FederationService service(&env->catalog, nullptr, options);

  // Warm both query families.
  ASSERT_TRUE(service.Run(kBeliefSql).ok());
  ASSERT_TRUE(service.Run(kFilteringSql).ok());
  auto warm_belief = service.Run(kBeliefSql);
  auto warm_filtering = service.Run(kFilteringSql);
  ASSERT_TRUE(warm_belief.ok());
  ASSERT_TRUE(warm_filtering.ok());
  EXPECT_GT(warm_belief->cache.TotalHits(), 0u);
  EXPECT_GT(warm_filtering->cache.TotalHits(), 0u);

  const CacheStats before = cache->Stats();

  // A write that provably touches the 'belief' family and not the
  // 'filtering' one.
  auto wrote = env->writer->Insert(
      MakeDoc("fresh-belief", "Belief update arrives live", {"Gravano"}));
  ASSERT_TRUE(wrote.ok()) << wrote.status().ToString();

  const CacheStats after = cache->Stats();
  EXPECT_GT(after.surgical_invalidations, before.surgical_invalidations);
  EXPECT_EQ(after.invalidations, before.invalidations + 1);  // One write.
  EXPECT_GT(after.entries, 0u);  // Not a flush: the filtering family stays.

  // The belief query sees the new document (no stale hit)...
  auto fresh_belief = service.Run(kBeliefSql);
  ASSERT_TRUE(fresh_belief.ok());
  bool saw_new = false;
  for (const std::string& row : RowStrings(*fresh_belief)) {
    if (row.find("fresh-belief") != std::string::npos) saw_new = true;
  }
  EXPECT_TRUE(saw_new);
  // ...and replays byte-identically against its pinned epoch with the
  // cache's absorbed operations excluded from the charge comparison (rows
  // only — the cache legitimately changes meters).
  auto replay = ReplayAtEpoch(*env, fresh_belief->corpus.epoch,
                              kBeliefSql, JoinMethodKind::kSJRTP, 1);
  ASSERT_TRUE(replay.ok());
  EXPECT_EQ(RowStrings(*fresh_belief), RowStrings(*replay));

  // The filtering family survived the write untouched: still a hit.
  auto still_warm = service.Run(kFilteringSql);
  ASSERT_TRUE(still_warm.ok());
  EXPECT_GT(still_warm->cache.TotalHits(), 0u);

  // A delete of a belief document invalidates the family again, and the
  // rows drop the document.
  ASSERT_TRUE(env->writer->Delete("fresh-belief").ok());
  auto after_delete = service.Run(kBeliefSql);
  ASSERT_TRUE(after_delete.ok());
  for (const std::string& row : RowStrings(*after_delete)) {
    EXPECT_EQ(row.find("fresh-belief"), std::string::npos) << row;
  }
  // Every entry that left, left through a write: the writer is the only
  // invalidation route, and nothing was evicted.
  const CacheStats end = cache->Stats();
  EXPECT_EQ(end.invalidations, before.invalidations + 2);
  EXPECT_EQ(end.evictions, 0u);
  EXPECT_GT(end.entries, 0u);
}

// ---------------------------------------------------------------------------
// Refused configurations: the writer can only invalidate the cache it
// holds, so a live service reads through no other cache, and a mutable
// corpus is served only in live mode.

TEST(LiveServiceDeathTest, LiveModeRefusesACacheTheWriterDoesNotHold) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto env = MakeLiveEnv(/*num_shards=*/1, /*num_replicas=*/1);
  FederationService::Options options =
      LiveOptions(*env, JoinMethodKind::kSJRTP, /*parallelism=*/1);
  options.chain.cache.emplace();  // Private: no writer invalidates it.
  EXPECT_DEATH(
      { FederationService service(&env->catalog, nullptr, options); },
      "live mode needs the CorpusWriter's cache");
}

TEST(LiveServiceDeathTest, MutableCorpusIsRefusedWithoutLiveMode) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  auto env = MakeLiveEnv(/*num_shards=*/1, /*num_replicas=*/1);
  FederationService::Options options =
      LiveOptions(*env, JoinMethodKind::kSJRTP, /*parallelism=*/1);
  options.live.reset();  // No pins: writes would tear queries and caches.
  EXPECT_DEATH(
      { FederationService service(&env->catalog, nullptr, options); },
      "a mutable corpus needs live mode");
}

// ---------------------------------------------------------------------------
// EXPLAIN surface

TEST(ExplainCorpusLineTest, RenderedForLiveCorporaOnlyInBothModes) {
  auto env = MakeLiveEnv(/*num_shards=*/2, /*num_replicas=*/1);
  ASSERT_TRUE(
      env->writer->Insert(MakeDoc("live-1", "Belief in explain", {"Kao"}))
          .ok());
  FederationService live(&env->catalog, nullptr,
                         LiveOptions(*env, JoinMethodKind::kTS, 1));
  auto outcome = live.Run(kGridSql);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  const std::string analyzed = ExplainAnalyze(*outcome);
  EXPECT_NE(analyzed.find("| corpus epoch=1 delta_docs="), std::string::npos)
      << analyzed;
  EXPECT_NE(analyzed.find(" docs=49"), std::string::npos) << analyzed;
  const std::string stable = ExplainAnalyze(*outcome, RenderMode::kStable);
  EXPECT_NE(stable.find("| corpus epoch=1"), std::string::npos) << stable;

  // A frozen corpus renders NO corpus line — the golden wall for frozen
  // deployments stays byte-stable.
  TextEngine frozen;
  for (Document& doc :
       env->mirror->Snapshot(kUnpinnedEpoch)->VisibleDocuments()) {
    ASSERT_TRUE(frozen.AddDocument(std::move(doc)).ok());
  }
  FederationService::Options frozen_options;
  frozen_options.text = MercuryDecl();
  FederationService reference(&env->catalog, &frozen, frozen_options);
  auto frozen_outcome = reference.Run(kGridSql);
  ASSERT_TRUE(frozen_outcome.ok());
  const std::string frozen_text = ExplainAnalyze(*frozen_outcome);
  EXPECT_EQ(frozen_text.find("| corpus"), std::string::npos) << frozen_text;
}

// ---------------------------------------------------------------------------
// Merge worker lifecycle

TEST(MergeWorkerLifecycleTest, ServiceOwnsStartsAndDrainsTheWorker) {
  auto env = MakeLiveEnv(/*num_shards=*/2, /*num_replicas=*/1);
  FederationService::Options options =
      LiveOptions(*env, JoinMethodKind::kTS, 1);
  options.live->merge_corpora = env->writer->AllCorpora();
  options.live->start_merge_worker = true;
  options.live->merge_worker.interval = std::chrono::milliseconds(1);
  FederationService service(&env->catalog, nullptr, options);
  ASSERT_NE(service.merge_worker(), nullptr);
  EXPECT_TRUE(service.merge_worker()->running());

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(env->writer
                    ->Insert(MakeDoc("bg-" + std::to_string(i),
                                     "Belief background " + std::to_string(i),
                                     {"Smith"}))
                    .ok());
    auto outcome = service.Run(kGridSql);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    auto replay = ReplayAtEpoch(*env, outcome->corpus.epoch, kGridSql,
                                JoinMethodKind::kTS, 1);
    ASSERT_TRUE(replay.ok());
    EXPECT_EQ(RowStrings(*outcome), RowStrings(*replay)) << "i=" << i;
  }

  const auto report = service.Drain(std::chrono::microseconds(1'000'000));
  EXPECT_EQ(report.cancelled, 0u);
  EXPECT_FALSE(service.merge_worker()->running());
  EXPECT_FALSE(service.Run(kGridSql).ok());  // Draining refuses new work.
}

// ---------------------------------------------------------------------------
// Traffic write mix

TEST(TrafficWriteMixTest, ReadsRaceWritesAndStalenessIsReported) {
  auto env = MakeLiveEnv(/*num_shards=*/2, /*num_replicas=*/1);
  FederationService::Options options =
      LiveOptions(*env, JoinMethodKind::kTS, 1);
  options.live->merge_corpora = env->writer->AllCorpora();
  options.live->start_merge_worker = true;
  FederationService service(&env->catalog, nullptr, options);

  TenantTrafficSpec mixed;
  mixed.tenant = "mixed";
  mixed.arrival_rate = 400.0;
  mixed.shapes = {{"belief", kGridSql, 1.0}};
  mixed.writes.insert_fraction = 0.2;
  mixed.writes.update_fraction = 0.1;
  mixed.writes.delete_fraction = 0.1;
  mixed.writes.field = "title";
  TenantTrafficSpec readonly;
  readonly.tenant = "readonly";
  readonly.arrival_rate = 100.0;
  readonly.shapes = {{"belief", kGridSql, 1.0}};

  TrafficOptions traffic;
  traffic.duration = std::chrono::milliseconds(300);
  traffic.workers = 8;
  traffic.writer = env->writer.get();
  traffic.clock = &env->clock;
  const TrafficReport report =
      RunOpenLoopTraffic(service, {mixed, readonly}, traffic);

  const TenantTrafficReport& m = report.tenants.at("mixed");
  const TenantTrafficReport& r = report.tenants.at("readonly");
  EXPECT_GT(m.arrivals, 0u);
  EXPECT_GT(m.writes, 0u);
  EXPECT_GT(m.completed, 0u);
  EXPECT_EQ(m.failed, 0u);
  EXPECT_EQ(r.writes, 0u);
  EXPECT_GT(r.completed, 0u);
  EXPECT_EQ(r.failed, 0u);
  // Every committed write advanced the frontier exactly once.
  EXPECT_EQ(env->clock.published(), m.writes);
  EXPECT_GE(m.max_epoch_lag, 0u);
  EXPECT_GE(m.mean_epoch_lag, 0.0);
  service.Drain(std::chrono::microseconds(1'000'000));
}

}  // namespace
}  // namespace textjoin
