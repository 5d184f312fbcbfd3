#include "text/live_corpus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "common/random.h"
#include "connector/corpus_writer.h"
#include "tests/support/random_text.h"
#include "tests/test_util.h"
#include "text/engine.h"

/// Unit tests for the live-corpus subsystem (DESIGN.md §16): the epoch
/// clock's contiguous frontier, snapshot parity with a frozen TextEngine,
/// tombstone visibility across pinned epochs, snapshot immutability under
/// later writes and merges, chaos-injected merge faults at the publish
/// boundary, replica agreement through CorpusWriter, randomized write
/// histories replayed in mirror order against a reference model, and a
/// sleepless writer/reader/merger stress for TSan.

namespace textjoin {
namespace {

using textjoin::testing::MakeDoc;
using textjoin::testing::RandomDocument;
using textjoin::testing::RandomQuery;

TextQueryPtr And2(TextQueryPtr a, TextQueryPtr b) {
  std::vector<TextQueryPtr> children;
  children.push_back(std::move(a));
  children.push_back(std::move(b));
  return TextQuery::And(std::move(children));
}

TextQueryPtr Or2(TextQueryPtr a, TextQueryPtr b) {
  std::vector<TextQueryPtr> children;
  children.push_back(std::move(a));
  children.push_back(std::move(b));
  return TextQuery::Or(std::move(children));
}

/// The query shapes every parity check runs: term, phrase, prefix,
/// conjunction, disjunction, negation, proximity.
std::vector<TextQueryPtr> ParityQueries() {
  std::vector<TextQueryPtr> queries;
  queries.push_back(TextQuery::Term("title", "belief"));
  queries.push_back(TextQuery::Term("title", "belief update"));  // Phrase.
  queries.push_back(TextQuery::Term("title", "sys", TermKind::kPrefix));
  queries.push_back(And2(TextQuery::Term("title", "belief"),
                         TextQuery::Term("author", "kao")));
  queries.push_back(Or2(TextQuery::Term("author", "smith"),
                        TextQuery::Term("author", "gravano")));
  queries.push_back(And2(TextQuery::Term("year", "1994"),
                         TextQuery::Not(TextQuery::Term("title", "belief"))));
  queries.push_back(TextQuery::Near(TextQuery::Term("title", "knowledge"),
                                    TextQuery::Term("title", "bases"), 2));
  return queries;
}

/// Builds a frozen TextEngine over the snapshot's visible documents in
/// rank order — the replay reference whose rows AND charges the snapshot
/// must match byte for byte.
std::unique_ptr<TextEngine> FrozenReplay(const CorpusSnapshot& snapshot,
                                         bool exhaustive = false) {
  auto engine = std::make_unique<TextEngine>();
  engine->set_exhaustive_eval(exhaustive);
  for (Document& doc : snapshot.VisibleDocuments()) {
    auto added = engine->AddDocument(std::move(doc));
    TEXTJOIN_CHECK(added.ok(), "%s", added.status().ToString().c_str());
  }
  return engine;
}

/// Asserts byte-identical Search results (doc numbers AND postings
/// charge) for every query in `queries`, plus document identity, between
/// a snapshot and its replay.
void ExpectParity(const SearchableCorpus& snapshot,
                  const SearchableCorpus& frozen, const std::string& label,
                  const std::vector<TextQueryPtr>& queries = ParityQueries()) {
  ASSERT_EQ(snapshot.num_documents(), frozen.num_documents()) << label;
  for (const TextQueryPtr& query : queries) {
    auto live = snapshot.Search(*query);
    auto replay = frozen.Search(*query);
    ASSERT_EQ(live.ok(), replay.ok()) << label;
    if (!live.ok()) continue;
    EXPECT_EQ(live.value().docs, replay.value().docs)
        << label << " query=" << query->CanonicalKey();
    EXPECT_EQ(live.value().postings_processed,
              replay.value().postings_processed)
        << label << " query=" << query->CanonicalKey();
  }
  for (DocNum num = 0; num < snapshot.num_documents(); ++num) {
    EXPECT_EQ(snapshot.GetDocument(num).docid, frozen.GetDocument(num).docid)
        << label << " num=" << num;
    EXPECT_EQ(snapshot.FindDocid(frozen.GetDocument(num).docid).value(), num)
        << label;
  }
}

void SeedSmallCorpus(LiveCorpus& corpus) {
  auto seed = [&](Document doc) {
    auto r = corpus.SeedDocument(std::move(doc));
    TEXTJOIN_CHECK(r.ok(), "%s", r.status().ToString().c_str());
  };
  seed(MakeDoc("d1", "Belief update in knowledge bases", {"Radhika", "Smith"}));
  seed(MakeDoc("d2", "Text retrieval systems survey", {"Gravano", "Kao"}));
  seed(MakeDoc("d3", "Distributed systems overview", {"Garcia", "Gravano"}));
  seed(MakeDoc("d4", "Belief revision and update", {"Kao"}));
  seed(MakeDoc("d5", "Query optimization for text", {"Smith", "Garcia"}));
  seed(MakeDoc("d6", "Information filtering", {"Yan"}, "1993"));
}

// ------------------------------------------------------------- EpochClock

TEST(EpochClockTest, FrontierIsContiguousUnderOutOfOrderPublish) {
  EpochClock clock;
  EXPECT_EQ(clock.published(), 0u);
  const uint64_t e1 = clock.Reserve();
  const uint64_t e2 = clock.Reserve();
  const uint64_t e3 = clock.Reserve();
  EXPECT_EQ(e1, 1u);
  EXPECT_EQ(e2, 2u);
  EXPECT_EQ(e3, 3u);
  EXPECT_EQ(clock.reserved(), 3u);
  // Publishing 2 first must NOT advance the frontier past the hole at 1.
  clock.Publish(e2);
  EXPECT_EQ(clock.published(), 0u);
  clock.Publish(e1);
  EXPECT_EQ(clock.published(), 2u);
  clock.Publish(e3);
  EXPECT_EQ(clock.published(), 3u);
}

// ------------------------------------------------------- Snapshot parity

TEST(LiveCorpusTest, SeededCorpusMatchesFrozenEngine) {
  LiveCorpus corpus;
  SeedSmallCorpus(corpus);
  auto snapshot = corpus.Snapshot(kUnpinnedEpoch);
  auto frozen = FrozenReplay(*snapshot);
  ExpectParity(*snapshot, *frozen, "seed-only");
  EXPECT_EQ(snapshot->pin_info().visible_docs, 6u);
  EXPECT_TRUE(corpus.mutable_corpus());
}

TEST(LiveCorpusTest, EveryPinnedEpochMatchesItsFrozenReplay) {
  LiveCorpus corpus;
  SeedSmallCorpus(corpus);
  // A write history touching every mutation kind. Epochs 1..6.
  ASSERT_TRUE(
      corpus.ApplyInsert(MakeDoc("d7", "Belief networks for retrieval",
                                 {"Widom"}),
                         1, 6)
          .ok());
  ASSERT_TRUE(
      corpus.ApplyUpdate(MakeDoc("d2", "Text indexing surveyed", {"Kao"}), 2)
          .ok());
  ASSERT_TRUE(corpus.ApplyDelete("d5", 3).ok());
  ASSERT_TRUE(
      corpus.ApplyInsert(MakeDoc("d8", "Parallel query execution", {"Ullman"}),
                         4, 7)
          .ok());
  ASSERT_TRUE(corpus.ApplyDelete("d7", 5).ok());
  // Re-insert after delete: the permanent ordinal (6) comes back.
  ASSERT_TRUE(
      corpus.ApplyInsert(MakeDoc("d7", "Belief update revisited", {"Widom"}),
                         6, 6)
          .ok());

  for (uint64_t epoch = 0; epoch <= 6; ++epoch) {
    auto snapshot = corpus.Snapshot(epoch);
    ASSERT_NE(snapshot, nullptr);
    EXPECT_EQ(snapshot->epoch(), epoch);
    auto frozen = FrozenReplay(*snapshot);
    ExpectParity(*snapshot, *frozen, "epoch=" + std::to_string(epoch));
  }
  // Spot-check visibility arithmetic: 6 seeds, +d7, update, -d5, +d8,
  // -d7, +d7 => 7 visible at the end.
  EXPECT_EQ(corpus.Snapshot(0)->num_documents(), 6u);
  EXPECT_EQ(corpus.Snapshot(1)->num_documents(), 7u);
  EXPECT_EQ(corpus.Snapshot(3)->num_documents(), 6u);
  EXPECT_EQ(corpus.Snapshot(4)->num_documents(), 7u);
  EXPECT_EQ(corpus.Snapshot(5)->num_documents(), 6u);
  EXPECT_EQ(corpus.Snapshot(6)->num_documents(), 7u);
  EXPECT_EQ(corpus.num_documents(), 7u);
}

TEST(LiveCorpusTest, SnapshotsAreImmutableAcrossLaterWritesAndMerges) {
  LiveCorpus corpus;
  SeedSmallCorpus(corpus);
  ASSERT_TRUE(
      corpus.ApplyInsert(MakeDoc("d7", "Belief networks", {"Widom"}), 1, 6)
          .ok());
  auto pinned = corpus.Snapshot(1);
  auto reference = FrozenReplay(*pinned);
  ExpectParity(*pinned, *reference, "pin=1 before churn");

  // Churn: updates, deletes, inserts, and merges — none of it may leak
  // into the already-captured snapshot.
  ASSERT_TRUE(corpus.ApplyDelete("d1", 2).ok());
  ASSERT_TRUE(
      corpus.ApplyUpdate(MakeDoc("d7", "Rewritten entirely", {"Nobody"}), 3)
          .ok());
  EXPECT_GT(corpus.MergePass(), 0u);
  ASSERT_TRUE(
      corpus.ApplyInsert(MakeDoc("d9", "Fresh arrival", {"Garcia"}), 4, 7)
          .ok());
  EXPECT_GT(corpus.MergePass(), 0u);

  ExpectParity(*pinned, *reference, "pin=1 after churn");
  // And a freshly-built snapshot of the same epoch still agrees.
  ExpectParity(*corpus.Snapshot(1), *reference, "pin=1 rebuilt");
}

TEST(LiveCorpusTest, UpdateKeepsOrdinalSoResultOrderIsStable) {
  LiveCorpus corpus;
  SeedSmallCorpus(corpus);
  // d2 sits at rank 1. Updating it must not move it.
  ASSERT_TRUE(
      corpus.ApplyUpdate(MakeDoc("d2", "Belief text retrieval", {"Kao"}), 1)
          .ok());
  auto snapshot = corpus.Snapshot(1);
  EXPECT_EQ(snapshot->GetDocument(1).docid, "d2");
  EXPECT_EQ(snapshot->GetDocument(1).fields.at("title")[0],
            "Belief text retrieval");
  ExpectParity(*snapshot, *FrozenReplay(*snapshot), "post-update");
}

// ----------------------------------------------------------- Merge chaos

TEST(LiveCorpusTest, MergeFoldsDeltasAndIsIdempotent) {
  LiveCorpus corpus;
  SeedSmallCorpus(corpus);
  ASSERT_TRUE(
      corpus.ApplyInsert(MakeDoc("d7", "Belief networks", {"Widom"}), 1, 6)
          .ok());
  ASSERT_TRUE(corpus.ApplyDelete("d3", 2).ok());
  EXPECT_GT(corpus.PendingDeltaDocs(), 0u);

  auto before = corpus.Snapshot(kUnpinnedEpoch);
  auto reference = FrozenReplay(*before);
  EXPECT_GT(corpus.MergePass(), 0u);
  EXPECT_EQ(corpus.PendingDeltaDocs(), 0u);
  ExpectParity(*corpus.Snapshot(kUnpinnedEpoch), *reference, "post-merge");
  // Snapshot of the merged state serves everything from main.
  EXPECT_EQ(corpus.Snapshot(kUnpinnedEpoch)->delta_docs(), 0u);

  // A second pass finds nothing (idempotent).
  EXPECT_EQ(corpus.MergePass(), 0u);
  ExpectParity(*corpus.Snapshot(kUnpinnedEpoch), *reference, "re-merge");

  const MergeStats stats = corpus.merge_stats();
  EXPECT_EQ(stats.published, 1u);
  EXPECT_GT(stats.docs_folded, 0u);
}

TEST(LiveCorpusTest, AbortBeforePublishLeavesStateUntouched) {
  LiveCorpus corpus;
  SeedSmallCorpus(corpus);
  ASSERT_TRUE(
      corpus.ApplyInsert(MakeDoc("d7", "Belief networks", {"Widom"}), 1, 6)
          .ok());
  const size_t pending = corpus.PendingDeltaDocs();
  auto reference = FrozenReplay(*corpus.Snapshot(kUnpinnedEpoch));

  // The "crash" happens after building the segment but before the swap:
  // nothing observable changes, and the deltas stay pending.
  EXPECT_EQ(corpus.MergePass(MergeFault::kAbortBeforePublish), 0u);
  EXPECT_EQ(corpus.PendingDeltaDocs(), pending);
  ExpectParity(*corpus.Snapshot(kUnpinnedEpoch), *reference, "post-abort");
  EXPECT_EQ(corpus.merge_stats().aborted_before_publish, 1u);
  EXPECT_EQ(corpus.merge_stats().published, 0u);

  // Recovery: a clean pass completes the fold.
  EXPECT_GT(corpus.MergePass(), 0u);
  EXPECT_EQ(corpus.PendingDeltaDocs(), 0u);
  ExpectParity(*corpus.Snapshot(kUnpinnedEpoch), *reference, "post-recovery");
}

TEST(LiveCorpusTest, SkipPruneLeftoversAreInvisibleAndPrunedLater) {
  LiveCorpus corpus;
  SeedSmallCorpus(corpus);
  ASSERT_TRUE(
      corpus.ApplyInsert(MakeDoc("d7", "Belief networks", {"Widom"}), 1, 6)
          .ok());
  ASSERT_TRUE(
      corpus.ApplyUpdate(MakeDoc("d4", "Belief revision redux", {"Kao"}), 2)
          .ok());
  auto reference = FrozenReplay(*corpus.Snapshot(kUnpinnedEpoch));

  // Publish WITHOUT pruning: the main segment now covers the chunks, and
  // the read path's coverage guard must make the leftovers inert — no
  // double postings, identical charges.
  EXPECT_GT(corpus.MergePass(MergeFault::kSkipPrune), 0u);
  EXPECT_EQ(corpus.merge_stats().published_unpruned, 1u);
  ExpectParity(*corpus.Snapshot(kUnpinnedEpoch), *reference, "unpruned");

  // The next clean pass is prune-only: no new docs folded, chunks retired.
  corpus.MergePass();
  EXPECT_EQ(corpus.PendingDeltaDocs(), 0u);
  EXPECT_GT(corpus.merge_stats().chunks_pruned, 0u);
  ExpectParity(*corpus.Snapshot(kUnpinnedEpoch), *reference, "pruned");
}

TEST(SegmentMergeWorkerTest, FaultScheduleDrivesDeterministicChaos) {
  LiveCorpus corpus;
  SeedSmallCorpus(corpus);
  ASSERT_TRUE(
      corpus.ApplyInsert(MakeDoc("d7", "Belief networks", {"Widom"}), 1, 6)
          .ok());
  auto reference = FrozenReplay(*corpus.Snapshot(kUnpinnedEpoch));

  MergeWorkerOptions options;
  options.fault_schedule = {MergeFault::kAbortBeforePublish,
                            MergeFault::kSkipPrune, MergeFault::kNone};
  SegmentMergeWorker worker({&corpus}, options);
  // Synchronous passes consume the schedule one fault per pass.
  EXPECT_EQ(worker.RunOnePass(), 0u);  // Abort: nothing folds.
  EXPECT_GT(worker.RunOnePass(), 0u);  // Publish without pruning.
  worker.RunOnePass();                 // Clean: prunes the leftovers.
  EXPECT_EQ(corpus.PendingDeltaDocs(), 0u);
  ExpectParity(*corpus.Snapshot(kUnpinnedEpoch), *reference, "chaos-worker");

  // Background mode starts and stops cleanly (idempotent both ways).
  worker.Start();
  worker.Start();
  EXPECT_TRUE(worker.running());
  worker.Stop();
  worker.Stop();
  EXPECT_FALSE(worker.running());
}

// ------------------------------------------------- Randomized parity

/// One mutation of a generated write history.
struct HistoryOp {
  enum class Kind { kInsert, kUpdate, kDelete };
  Kind kind = Kind::kInsert;
  uint64_t epoch = 0;
  std::string docid;
  uint64_t ordinal = 0;  ///< Permanent per docid.
  Document doc;          ///< The new version (insert and update).
};

/// The reference model: every version applied so far, per docid, with the
/// epoch that bore it and the epoch that killed it (none yet = unpinned).
struct ModelVersion {
  uint64_t born = 0;
  uint64_t dead = kUnpinnedEpoch;
  Document doc;
};
struct ModelDocid {
  uint64_t ordinal = 0;
  std::vector<ModelVersion> versions;
};

/// The docids visible at `pin` under the model, in permanent-ordinal
/// order: what CorpusSnapshot numbers 0..V-1.
std::vector<const Document*> ModelVisible(
    const std::map<std::string, ModelDocid>& model, uint64_t pin) {
  std::vector<std::pair<uint64_t, const Document*>> visible;
  for (const auto& [docid, entry] : model) {
    for (const ModelVersion& v : entry.versions) {
      if (v.born <= pin && pin < v.dead) {
        visible.emplace_back(entry.ordinal, &v.doc);
      }
    }
  }
  std::sort(visible.begin(), visible.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::vector<const Document*> docs;
  for (const auto& [ordinal, doc] : visible) docs.push_back(doc);
  return docs;
}

/// A random history of inserts, updates, deletes and re-inserts over a
/// small docid pool, one mutation per epoch 1..epochs, valid when applied
/// in epoch order. Seeds hold docids [0, seeds) with ordinals 0..seeds-1.
std::vector<HistoryOp> RandomHistory(Rng& rng, int seeds, int pool,
                                     int epochs) {
  std::map<std::string, bool> live;
  std::map<std::string, uint64_t> ordinals;
  for (int d = 0; d < seeds; ++d) {
    const std::string docid = "doc" + std::to_string(d);
    live[docid] = true;
    ordinals[docid] = static_cast<uint64_t>(d);
  }
  uint64_t next_ordinal = static_cast<uint64_t>(seeds);
  std::vector<HistoryOp> ops;
  for (int e = 1; e <= epochs; ++e) {
    HistoryOp op;
    op.epoch = static_cast<uint64_t>(e);
    op.docid = "doc" + std::to_string(rng.Uniform(0, pool - 1));
    const bool is_live = live[op.docid];
    if (!is_live) {
      op.kind = HistoryOp::Kind::kInsert;  // First insert or re-insert.
      auto [it, fresh] = ordinals.emplace(op.docid, next_ordinal);
      if (fresh) ++next_ordinal;
      op.ordinal = it->second;
    } else {
      op.kind = rng.Bernoulli(0.5) ? HistoryOp::Kind::kUpdate
                                   : HistoryOp::Kind::kDelete;
      op.ordinal = ordinals[op.docid];
    }
    if (op.kind != HistoryOp::Kind::kDelete) {
      op.doc = RandomDocument(rng, op.docid);
    }
    live[op.docid] = op.kind != HistoryOp::Kind::kDelete;
    ops.push_back(std::move(op));
  }
  return ops;
}

/// The order a sharded mirror receives `ops` in: each shard's (ordinal
/// parity's) ops keep their epoch order, as the writer's shard lock
/// guarantees, but the two shards interleave at random — so epochs, and
/// the ordinals of new docids, arrive out of order.
std::vector<const HistoryOp*> MirrorOrder(Rng& rng,
                                          const std::vector<HistoryOp>& ops) {
  std::vector<const HistoryOp*> shards[2];
  for (const HistoryOp& op : ops) shards[op.ordinal % 2].push_back(&op);
  std::vector<const HistoryOp*> order;
  size_t next[2] = {0, 0};
  while (next[0] < shards[0].size() || next[1] < shards[1].size()) {
    const int shard = next[0] == shards[0].size()   ? 1
                      : next[1] == shards[1].size() ? 0
                                                    : static_cast<int>(
                                                          rng.Uniform(0, 1));
    order.push_back(shards[shard][next[shard]++]);
  }
  return order;
}

/// Random history x random application order x random merges (each
/// MergeFault) x random pins x random query trees, in both evaluation
/// modes: every pinned snapshot must show exactly the model's visible
/// documents, and match its frozen replay in docs AND postings charge.
class LiveSnapshotFuzzTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(LiveSnapshotFuzzTest, RandomHistoriesMatchFrozenReplay) {
  const auto [seed, exhaustive] = GetParam();
  Rng rng(seed * 7919 + 13);
  constexpr int kSeeds = 6;
  constexpr int kPool = 14;
  constexpr int kEpochs = 48;
  const std::vector<HistoryOp> ops = RandomHistory(rng, kSeeds, kPool,
                                                   kEpochs);
  // Two thirds of the seeds apply the history in mirror order.
  std::vector<const HistoryOp*> order;
  if (seed % 3 != 0) {
    order = MirrorOrder(rng, ops);
  } else {
    for (const HistoryOp& op : ops) order.push_back(&op);
  }

  LiveCorpus corpus;
  corpus.set_exhaustive_eval(exhaustive);
  std::map<std::string, ModelDocid> model;
  for (int d = 0; d < kSeeds; ++d) {
    Document doc = RandomDocument(rng, "doc" + std::to_string(d));
    model[doc.docid] = {static_cast<uint64_t>(d), {{0, kUnpinnedEpoch, doc}}};
    ASSERT_TRUE(corpus.SeedDocument(std::move(doc)).ok());
  }

  uint64_t max_applied = 0;
  std::vector<TextQueryPtr> queries;
  auto check_pin = [&](uint64_t pin, const std::string& label) {
    auto snapshot = corpus.Snapshot(pin);
    const uint64_t resolved = pin == kUnpinnedEpoch ? max_applied : pin;
    const std::vector<const Document*> want = ModelVisible(model, resolved);
    ASSERT_EQ(snapshot->num_documents(), want.size()) << label;
    for (DocNum num = 0; num < want.size(); ++num) {
      ASSERT_EQ(snapshot->GetDocument(num).docid, want[num]->docid) << label;
      ASSERT_EQ(snapshot->GetDocument(num).fields, want[num]->fields)
          << label;
    }
    queries.clear();
    for (int q = 0; q < 4; ++q) queries.push_back(RandomQuery(rng, 3));
    ExpectParity(*snapshot, *FrozenReplay(*snapshot, exhaustive), label,
                 queries);
  };

  const MergeFault faults[] = {MergeFault::kNone,
                               MergeFault::kAbortBeforePublish,
                               MergeFault::kSkipPrune};
  for (size_t i = 0; i < order.size(); ++i) {
    const HistoryOp& op = *order[i];
    ModelDocid& entry = model[op.docid];
    switch (op.kind) {
      case HistoryOp::Kind::kInsert:
        ASSERT_TRUE(corpus.ApplyInsert(op.doc, op.epoch, op.ordinal).ok());
        entry.ordinal = op.ordinal;
        entry.versions.push_back({op.epoch, kUnpinnedEpoch, op.doc});
        break;
      case HistoryOp::Kind::kUpdate:
        ASSERT_TRUE(corpus.ApplyUpdate(op.doc, op.epoch).ok());
        entry.versions.back().dead = op.epoch;
        entry.versions.push_back({op.epoch, kUnpinnedEpoch, op.doc});
        break;
      case HistoryOp::Kind::kDelete:
        ASSERT_TRUE(corpus.ApplyDelete(op.docid, op.epoch).ok());
        entry.versions.back().dead = op.epoch;
        break;
    }
    max_applied = std::max(max_applied, op.epoch);
    if (rng.Bernoulli(0.15)) corpus.MergePass(faults[rng.Uniform(0, 2)]);
    if (rng.Bernoulli(0.25)) {
      const uint64_t pin =
          rng.Bernoulli(0.2) ? kUnpinnedEpoch
                             : static_cast<uint64_t>(rng.Uniform(0, kEpochs));
      check_pin(pin, "seed=" + std::to_string(seed) + " op=" +
                         std::to_string(i) + " pin=" + std::to_string(pin));
    }
  }
  // Pins across the finished history, before and after a clean merge.
  for (int round = 0; round < 2; ++round) {
    for (uint64_t pin = 0; pin <= kEpochs; pin += 4) {
      check_pin(pin, "seed=" + std::to_string(seed) + " final pin=" +
                         std::to_string(pin) + " round=" +
                         std::to_string(round));
    }
    check_pin(kUnpinnedEpoch, "seed=" + std::to_string(seed) + " latest");
    corpus.MergePass();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, LiveSnapshotFuzzTest,
                         ::testing::Combine(::testing::Range<uint64_t>(1, 17),
                                            ::testing::Bool()));

// --------------------------------------------------------- CorpusWriter

TEST(CorpusWriterTest, ReplicasAndMirrorAgreeAfterMixedWrites) {
  LiveCorpus s0r0, s0r1, s1r0, s1r1, mirror;
  EpochClock clock;
  CorpusWriter writer({{&s0r0, &s0r1}, {&s1r0, &s1r1}}, &clock,
                      /*cache=*/nullptr, &mirror);

  auto seed = [&](Document doc) {
    auto st = writer.Seed(std::move(doc));
    TEXTJOIN_CHECK(st.ok(), "%s", st.ToString().c_str());
  };
  seed(MakeDoc("d1", "Belief update in knowledge bases", {"Radhika"}));
  seed(MakeDoc("d2", "Text retrieval systems survey", {"Gravano"}));
  seed(MakeDoc("d3", "Distributed systems overview", {"Garcia"}));
  EXPECT_EQ(writer.Seed(MakeDoc("d1", "dup", {"X"})).code(),
            StatusCode::kAlreadyExists);

  ASSERT_TRUE(writer.Insert(MakeDoc("d4", "Belief revision", {"Kao"})).ok());
  ASSERT_TRUE(
      writer.Update(MakeDoc("d2", "Text indexing surveyed", {"Kao"})).ok());
  ASSERT_TRUE(writer.Delete("d3").ok());
  // Validation failures consume no epoch and are counted.
  EXPECT_EQ(writer.Insert(MakeDoc("d4", "again", {"X"})).status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(writer.Delete("d3").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(writer.Update(MakeDoc("nope", "x", {"X"})).status().code(),
            StatusCode::kNotFound);
  // Re-insert after delete keeps the permanent ordinal.
  ASSERT_TRUE(writer.Insert(MakeDoc("d3", "It returns", {"Garcia"})).ok());

  const uint64_t frontier = clock.published();
  EXPECT_EQ(frontier, 4u);  // Four committed mutations.
  EXPECT_EQ(writer.stats().inserts, 2u);
  EXPECT_EQ(writer.stats().updates, 1u);
  EXPECT_EQ(writer.stats().deletes, 1u);
  EXPECT_EQ(writer.stats().rejected, 3u);

  // Replicas of each shard serve byte-identical snapshots.
  for (auto [a, b] : {std::pair<LiveCorpus*, LiveCorpus*>{&s0r0, &s0r1},
                      std::pair<LiveCorpus*, LiveCorpus*>{&s1r0, &s1r1}}) {
    auto sa = a->Snapshot(frontier);
    auto sb = b->Snapshot(frontier);
    ASSERT_EQ(sa->num_documents(), sb->num_documents());
    ExpectParity(*sa, *FrozenReplay(*sb), "replica agreement");
  }
  // The mirror holds the whole corpus; shards partition it.
  EXPECT_EQ(mirror.num_documents(), 4u);
  EXPECT_EQ(s0r0.num_documents() + s1r0.num_documents(), 4u);
  // Every live docid resolves through the partitioner, with the mirror's
  // ordinal agreeing with OrdinalFn.
  auto ordinal_of = writer.OrdinalFn();
  EXPECT_GE(ordinal_of("d1"), 0);
  EXPECT_EQ(ordinal_of("missing"), -1);
  EXPECT_EQ(writer.AllCorpora().size(), 5u);
}

// ----------------------------------------------------------- TSan stress

/// Writers, readers and a merger race with NO sleeps: every interleaving
/// TSan can find is fair game, and the end state must replay exactly.
TEST(LiveCorpusStressTest, WritersReadersAndMergerRaceCleanly) {
  LiveCorpus corpus;
  EpochClock clock;
  CorpusWriter writer({{&corpus}}, &clock);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(writer
                    .Seed(MakeDoc("seed-" + std::to_string(i),
                                  "Belief update seed", {"Author"}))
                    .ok());
  }

  constexpr int kWriters = 2;
  constexpr int kOpsPerWriter = 60;
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;

  // Writers own disjoint docid namespaces, so cross-thread validation
  // races cannot occur — every mutation must succeed.
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&writer, w] {
      const std::string ns = "t" + std::to_string(w) + "-";
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const std::string docid = ns + std::to_string(i % 10);
        Document doc = MakeDoc(docid, "Belief churn " + std::to_string(i),
                               {"Writer" + std::to_string(w)});
        switch (i % 3) {
          case 0: {
            auto r = writer.Insert(std::move(doc));
            TEXTJOIN_CHECK(r.ok() || r.status().code() ==
                                         StatusCode::kAlreadyExists,
                           "unexpected insert failure");
            break;
          }
          case 1: {
            auto r = writer.Update(std::move(doc));
            TEXTJOIN_CHECK(
                r.ok() || r.status().code() == StatusCode::kNotFound,
                "unexpected update failure");
            break;
          }
          case 2: {
            auto r = writer.Delete(docid);
            TEXTJOIN_CHECK(
                r.ok() || r.status().code() == StatusCode::kNotFound,
                "unexpected delete failure");
            break;
          }
        }
      }
    });
  }
  // Readers pin the published frontier and verify internal consistency of
  // each snapshot (count matches iteration; docids resolve back).
  for (int r = 0; r < 2; ++r) {
    threads.emplace_back([&corpus, &clock, &stop] {
      TextQueryPtr query = TextQuery::Term("title", "belief");
      while (!stop.load(std::memory_order_acquire)) {
        const uint64_t pin = clock.published();
        auto snapshot = corpus.Snapshot(pin);
        auto result = snapshot->Search(*query);
        TEXTJOIN_CHECK(result.ok(), "search failed");
        size_t count = 0;
        for (DocNum num = 0; num < snapshot->num_documents(); ++num) {
          const std::string& docid = snapshot->GetDocument(num).docid;
          TEXTJOIN_CHECK(snapshot->FindDocid(docid).value() == num,
                         "docid round-trip");
          ++count;
        }
        TEXTJOIN_CHECK(count == snapshot->num_documents(), "count");
      }
    });
  }
  // The merger folds continuously, alternating injected faults.
  threads.emplace_back([&corpus, &stop] {
    int pass = 0;
    while (!stop.load(std::memory_order_acquire)) {
      const MergeFault fault = pass % 3 == 1
                                   ? MergeFault::kAbortBeforePublish
                                   : pass % 3 == 2 ? MergeFault::kSkipPrune
                                                   : MergeFault::kNone;
      corpus.MergePass(fault);
      ++pass;
    }
  });

  for (int w = 0; w < kWriters; ++w) threads[static_cast<size_t>(w)].join();
  stop.store(true, std::memory_order_release);
  for (size_t i = kWriters; i < threads.size(); ++i) threads[i].join();

  // Quiesced end state: a final clean merge, then byte parity with the
  // frozen replay of the last published epoch.
  corpus.MergePass();
  corpus.MergePass();
  EXPECT_EQ(corpus.PendingDeltaDocs(), 0u);
  auto snapshot = corpus.Snapshot(clock.published());
  ExpectParity(*snapshot, *FrozenReplay(*snapshot), "post-stress");
}

}  // namespace
}  // namespace textjoin
