// Substrate micro-benchmarks (google-benchmark): the primitive operations
// whose costs underlie the Section-4 model — sorted posting-list merges
// (linear, per the paper's text-system model) in both the engine's
// block-compressed representation and the flat reference form of
// tests/support, phrase adjacency, index build, Boolean search evaluation,
// tokenization, the relational hash join, Q5's relational join with its
// residual selected per batch and evaluated per row on the scratch row it
// replaced, Q5's probe grouping and probe searches, the paper's Q5 through
// the whole service,
// and planning each paper query on a plan-cache hit against planning it
// from scratch. A custom main() additionally emits the machine-readable
// BENCH_vectorized.json snapshot (rows/sec, ns/row, heap allocations) and
// hosts the release perf-smoke gates:
//
//   bench_micro                         # full google-benchmark suite + JSON
//   bench_micro --snapshot_only         # just the JSON snapshot section
//   bench_micro --perf_smoke            # snapshot + block-vs-reference,
//                                       # batch-vs-scratch-row and
//                                       # plan-cache-hit gates
//   bench_micro --snapshot_path=<file>  # where the JSON lands
//                                       # (default BENCH_vectorized.json)

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <iterator>
#include <set>
#include <string_view>

#include "bench/bench_util.h"
#include "common/arena.h"
#include "common/random.h"
#include "common/text_match.h"
#include "core/enumerator.h"
#include "relational/join.h"
#include "sql/federation_service.h"
#include "sql/parser.h"
#include "tests/support/reference_expression.h"
#include "tests/support/reference_postings.h"
#include "text/engine.h"
#include "text/eval.h"
#include "text/postings.h"
#include "text/query.h"
#include "text/storage.h"
#include "workload/paper_queries.h"
#include "workload/scenario.h"

namespace {

using namespace textjoin;

PostingList MakePostings(size_t n, uint32_t stride) {
  PostingList list;
  list.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    list.push_back(
        Posting{static_cast<DocNum>(i * stride), {static_cast<TokenPos>(i)}});
  }
  return list;
}

void BM_PostingIntersect(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  PostingList a = MakePostings(n, 2);
  PostingList b = MakePostings(n, 3);
  for (auto _ : state) {
    MergeCounter counter;
    benchmark::DoNotOptimize(IntersectLists(a, b, &counter));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 * n);
}
BENCHMARK(BM_PostingIntersect)->Range(1 << 8, 1 << 16);

void BM_BlockPostingIntersect(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const BlockPostings a = BlockPostingsFromList(MakePostings(n, 2));
  const BlockPostings b = BlockPostingsFromList(MakePostings(n, 3));
  for (auto _ : state) {
    Arena arena;
    benchmark::DoNotOptimize(IntersectBlocks(a, b, arena).size);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 * n);
}
BENCHMARK(BM_BlockPostingIntersect)->Range(1 << 8, 1 << 16);

void BM_PostingUnion(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  PostingList a = MakePostings(n, 2);
  PostingList b = MakePostings(n, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(UnionLists(a, b, nullptr));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 * n);
}
BENCHMARK(BM_PostingUnion)->Range(1 << 8, 1 << 16);

void BM_BlockPostingUnion(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const BlockPostings a = BlockPostingsFromList(MakePostings(n, 2));
  const BlockPostings b = BlockPostingsFromList(MakePostings(n, 3));
  Arena decode_arena;
  const PostingsView va = DecodeBlockPostings(a, decode_arena);
  const PostingsView vb = DecodeBlockPostings(b, decode_arena);
  for (auto _ : state) {
    Arena arena;
    benchmark::DoNotOptimize(UnionViews(va, vb, arena).size);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 * n);
}
BENCHMARK(BM_BlockPostingUnion)->Range(1 << 8, 1 << 16);

void BM_PhraseAdjacent(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  PostingList a = MakePostings(n, 1);
  PostingList b;
  for (size_t i = 0; i < n; ++i) {
    b.push_back(Posting{static_cast<DocNum>(i),
                        {static_cast<TokenPos>(i + 1)}});
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(PhraseAdjacent(a, b, nullptr));
  }
}
BENCHMARK(BM_PhraseAdjacent)->Range(1 << 8, 1 << 14);

void BM_Tokenize(benchmark::State& state) {
  const std::string text =
      "Join queries with external text sources: execution and "
      "optimization techniques for loosely integrated database systems";
  for (auto _ : state) {
    benchmark::DoNotOptimize(TokenizeText(text));
  }
}
BENCHMARK(BM_Tokenize);

void BM_IndexBuild(benchmark::State& state) {
  const size_t docs = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    state.PauseTiming();
    TextEngine engine;
    Rng rng(7);
    state.ResumeTiming();
    for (size_t d = 0; d < docs; ++d) {
      Document doc;
      doc.docid = std::string("d") + std::to_string(d);
      std::string title;
      for (int w = 0; w < 8; ++w) {
        title += "w";
        title += std::to_string(rng.Uniform(0, 2000));
        title += ' ';
      }
      doc.fields["title"] = {title};
      doc.fields["author"] = {std::string("a") +
                              std::to_string(rng.Uniform(0, 200))};
      benchmark::DoNotOptimize(engine.AddDocument(std::move(doc)));
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(docs));
}
BENCHMARK(BM_IndexBuild)->Range(1 << 8, 1 << 12);

// The 20k-doc search corpus shared by the SearchFixture benchmarks and
// the JSON snapshot section below.
std::unique_ptr<TextEngine> BuildSearchCorpus() {
  auto engine = std::make_unique<TextEngine>();
  Rng rng(11);
  for (size_t d = 0; d < 20000; ++d) {
    Document doc;
    doc.docid = std::string("d") + std::to_string(d);
    std::string title;
    for (int w = 0; w < 8; ++w) {
      title += "w";
      title += std::to_string(rng.Uniform(0, 3000));
      title += ' ';
    }
    doc.fields["title"] = {title};
    doc.fields["author"] = {
        std::string("a") + std::to_string(rng.Uniform(0, 500)),
        std::string("a") + std::to_string(rng.Uniform(0, 500))};
    TEXTJOIN_CHECK(engine->AddDocument(std::move(doc)).ok(), "add");
  }
  return engine;
}

class SearchFixture : public benchmark::Fixture {
 public:
  void SetUp(const benchmark::State&) override {
    if (!engine) engine = BuildSearchCorpus();
  }
  std::unique_ptr<TextEngine> engine;
};

BENCHMARK_F(SearchFixture, BM_SearchSingleWord)(benchmark::State& state) {
  auto q = TextQuery::Term("title", "w42");
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Search(*q));
  }
}

BENCHMARK_F(SearchFixture, BM_SearchConjunction)(benchmark::State& state) {
  auto parsed = ParseTextQuery("title='w42' and author='a7'");
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Search(**parsed));
  }
}

/// The flat reference evaluator over the same engine's index.
Result<EngineSearchResult> SearchReference(const TextEngine& engine,
                                           const TextQuery& query) {
  return ReferenceSearch(query, engine.index(), engine.num_documents(),
                         engine.max_search_terms(), engine.exhaustive_eval());
}

BENCHMARK_F(SearchFixture, BM_SearchConjunctionReference)
(benchmark::State& state) {
  auto parsed = ParseTextQuery("title='w42' and author='a7'");
  for (auto _ : state) {
    benchmark::DoNotOptimize(SearchReference(*engine, **parsed));
  }
}

BENCHMARK_F(SearchFixture, BM_SearchBigDisjunction)(benchmark::State& state) {
  std::vector<TextQueryPtr> terms;
  for (int i = 0; i < 60; ++i) {
    terms.push_back(
        TextQuery::Term("author", std::string("a") + std::to_string(i)));
  }
  auto q = TextQuery::Or(std::move(terms));
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine->Search(*q));
  }
}

BENCHMARK_F(SearchFixture, BM_SearchBigDisjunctionReference)
(benchmark::State& state) {
  std::vector<TextQueryPtr> terms;
  for (int i = 0; i < 60; ++i) {
    terms.push_back(
        TextQuery::Term("author", std::string("a") + std::to_string(i)));
  }
  auto q = TextQuery::Or(std::move(terms));
  for (auto _ : state) {
    benchmark::DoNotOptimize(SearchReference(*engine, *q));
  }
}

void BM_HashJoin(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Schema left_schema;
  left_schema.AddColumn(Column{"l", "k", ValueType::kInt64});
  Schema right_schema;
  right_schema.AddColumn(Column{"r", "k", ValueType::kInt64});
  std::vector<Row> left_rows, right_rows;
  Rng rng(5);
  for (size_t i = 0; i < n; ++i) {
    left_rows.push_back({Value::Int(rng.Uniform(0, 1000))});
    right_rows.push_back({Value::Int(rng.Uniform(0, 1000))});
  }
  const RowIdSet left = RowIdSet::BorrowedAll(left_schema, left_rows);
  const RowIdSet right = RowIdSet::BorrowedAll(right_schema, right_rows);
  for (auto _ : state) {
    benchmark::DoNotOptimize(JoinRows(left, right, {{"l.k", "r.k"}}, nullptr));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * n));
}
BENCHMARK(BM_HashJoin)->Range(1 << 8, 1 << 13);

void BM_ScenarioBuild(benchmark::State& state) {
  for (auto _ : state) {
    ScenarioConfig config;
    config.relations = {{"r", 200, {}}};
    config.predicates = {{"r", "c", "author", 50, 0.4, 1.0}};
    config.num_documents = static_cast<size_t>(state.range(0));
    benchmark::DoNotOptimize(BuildScenario(config));
  }
}
BENCHMARK(BM_ScenarioBuild)->Range(1 << 9, 1 << 12);


void BM_DiskListRead(benchmark::State& state) {
  // Lists-on-disk read path ([DH91]) vs the in-memory lookup below.
  constexpr size_t kDocs = 5000;
  static const std::string* const kIndexPath = [] {
    ScenarioConfig config;
    config.relations = {{"r", 100, {}}};
    config.predicates = {{"r", "c", "author", 50, 1.0, 40.0}};
    config.num_documents = kDocs;
    auto scenario = BuildScenario(config);
    TEXTJOIN_CHECK(scenario.ok(), "scenario");
    auto* path = new std::string("/tmp/textjoin_bench_index.tji");
    TEXTJOIN_CHECK(WriteIndexFile(*scenario->engine, *path).ok(), "write");
    return path;
  }();
  auto disk = DiskPostingIndex::Open(*kIndexPath, kDocs);
  TEXTJOIN_CHECK(disk.ok(), "open");
  size_t i = 0;
  for (auto _ : state) {
    const std::string token = std::string("p0v") + std::to_string(i++ % 50);
    benchmark::DoNotOptimize((*disk)->ReadList("author", token));
  }
}
BENCHMARK(BM_DiskListRead);

void BM_MemoryListLookup(benchmark::State& state) {
  static const TextEngine* const kEngine = [] {
    ScenarioConfig config;
    config.relations = {{"r", 100, {}}};
    config.predicates = {{"r", "c", "author", 50, 1.0, 40.0}};
    config.num_documents = 5000;
    auto scenario = BuildScenario(config);
    TEXTJOIN_CHECK(scenario.ok(), "scenario");
    return scenario->engine.release();
  }();
  size_t i = 0;
  for (auto _ : state) {
    const std::string token = std::string("p0v") + std::to_string(i++ % 50);
    benchmark::DoNotOptimize(kEngine->index().Lookup("author", token));
  }
}
BENCHMARK(BM_MemoryListLookup);

// -------------------------------------------------------------------------
// BENCH_vectorized.json snapshot + perf-smoke gate (DESIGN.md §14). Every
// paired record measures the flat reference (tests/support) and the
// block-compressed kernel on identical inputs, so ns_per_row ratios are
// direct speedups; the join records measure the batched tuple pipeline end
// to end, where the allocation count is the arena-vs-heap artifact. The
// reference records keep their "legacy" names so the snapshot stays
// comparable with earlier ones.

/// "DistinctKeys" -> "distinct_keys".
std::string SnakeCase(std::string_view name) {
  std::string out;
  for (const char c : name) {
    if (std::isupper(static_cast<unsigned char>(c)) && !out.empty()) {
      out += '_';
    }
    out += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  return out;
}

std::vector<bench::BenchRecord> RunVectorizedSnapshot() {
  using bench::TimeLoop;
  std::vector<bench::BenchRecord> out;

  {
    // Paired merge kernels over 64k-doc lists; rows = postings scanned.
    const size_t n = 1 << 16;
    const PostingList la = MakePostings(n, 2);
    const PostingList lb = MakePostings(n, 3);
    const BlockPostings ba = BlockPostingsFromList(la);
    const BlockPostings bb = BlockPostingsFromList(lb);
    Arena decode_arena;
    const PostingsView va = DecodeBlockPostings(ba, decode_arena);
    const PostingsView vb = DecodeBlockPostings(bb, decode_arena);
    out.push_back(TimeLoop("intersect_legacy_64k", 20, 2.0 * n, [&] {
      MergeCounter counter;
      benchmark::DoNotOptimize(IntersectLists(la, lb, &counter));
    }));
    out.push_back(TimeLoop("intersect_block_64k", 20, 2.0 * n, [&] {
      Arena arena;
      benchmark::DoNotOptimize(IntersectBlocks(ba, bb, arena).size);
    }));
    out.push_back(TimeLoop("union_legacy_64k", 10, 2.0 * n, [&] {
      benchmark::DoNotOptimize(UnionLists(la, lb, nullptr));
    }));
    out.push_back(TimeLoop("union_block_64k", 10, 2.0 * n, [&] {
      Arena arena;
      benchmark::DoNotOptimize(UnionViews(va, vb, arena).size);
    }));
  }
  {
    // Skewed conjunction (rare term AND common term), the shape block-max
    // skipping is built for: the reference merge walks the whole dense
    // list, the block cursor skips undecoded blocks. rows = postings
    // scanned by the reference merge so both records share a work basis.
    const size_t n = 1 << 16;
    const PostingList dense = MakePostings(n, 2);
    const PostingList sparse = MakePostings(n / 128, 256);
    const BlockPostings bd = BlockPostingsFromList(dense);
    const BlockPostings bs = BlockPostingsFromList(sparse);
    const double rows = static_cast<double>(n + n / 128);
    out.push_back(TimeLoop("intersect_skew_legacy", 50, rows, [&] {
      MergeCounter counter;
      benchmark::DoNotOptimize(IntersectLists(sparse, dense, &counter));
    }));
    out.push_back(TimeLoop("intersect_skew_block", 50, rows, [&] {
      Arena arena;
      benchmark::DoNotOptimize(IntersectBlocks(bs, bd, arena).size);
    }));
  }
  {
    // Phrase adjacency over 16k-doc lists where every doc matches.
    const size_t n = 1 << 14;
    const PostingList la = MakePostings(n, 1);
    PostingList lb;
    for (size_t i = 0; i < n; ++i) {
      lb.push_back(Posting{static_cast<DocNum>(i),
                           {static_cast<TokenPos>(i + 1)}});
    }
    const BlockPostings ba = BlockPostingsFromList(la);
    const BlockPostings bb = BlockPostingsFromList(lb);
    Arena decode_arena;
    const PostingsView va = DecodeBlockPostings(ba, decode_arena);
    const PostingsView vb = DecodeBlockPostings(bb, decode_arena);
    out.push_back(TimeLoop("phrase_legacy_16k", 20, 2.0 * n, [&] {
      benchmark::DoNotOptimize(PhraseAdjacent(la, lb, nullptr));
    }));
    out.push_back(TimeLoop("phrase_block_16k", 20, 2.0 * n, [&] {
      Arena arena;
      benchmark::DoNotOptimize(PhraseAdjacentViews(va, vb, arena).size);
    }));
  }
  {
    // Boolean search over a 20k-doc corpus; rows = postings the evaluator
    // charges, which the reference charges too (the differential
    // invariant). The reference materializes each list per lookup.
    auto engine = BuildSearchCorpus();
    auto conj = ParseTextQuery("title='w42' and author='a7'");
    TEXTJOIN_CHECK(conj.ok(), "parse");
    std::vector<TextQueryPtr> terms;
    for (int i = 0; i < 60; ++i) {
      terms.push_back(
          TextQuery::Term("author", std::string("a") + std::to_string(i)));
    }
    const TextQueryPtr disj = TextQuery::Or(std::move(terms));
    auto conj_probe = engine->Search(**conj);
    auto disj_probe = engine->Search(*disj);
    TEXTJOIN_CHECK(conj_probe.ok() && disj_probe.ok(), "probe");
    const double conj_rows =
        static_cast<double>(conj_probe->postings_processed);
    const double disj_rows =
        static_cast<double>(disj_probe->postings_processed);
    out.push_back(TimeLoop("search_conjunction_legacy", 2000, conj_rows,
                           [&] {
                             benchmark::DoNotOptimize(
                                 SearchReference(*engine, **conj));
                           }));
    out.push_back(TimeLoop("search_conjunction_block", 2000, conj_rows,
                           [&] {
                             benchmark::DoNotOptimize(engine->Search(**conj));
                           }));
    out.push_back(TimeLoop("search_disjunction_legacy", 5, disj_rows, [&] {
      benchmark::DoNotOptimize(SearchReference(*engine, *disj));
    }));
    out.push_back(TimeLoop("search_disjunction_block", 5, disj_rows, [&] {
      benchmark::DoNotOptimize(engine->Search(*disj));
    }));
  }
  {
    // End-to-end TS join over Q3 (batched pipeline + arenas); rows =
    // result rows, allocs_per_row is the memory-layout artifact. Then the
    // same join's per-stage split, join_ts_stage_<stage>: each stage's
    // wall-clock from the stage profile (a unit's own time plus the source
    // operations it issued, so the stages sum to the busy time), summed
    // over as many runs, per output row; these carry no allocation count.
    // A stage that runs no unit has no record: Q3 reads docids only, so TS
    // fetches nothing.
    constexpr size_t kRuns = 200;
    Q3Config config;
    config.num_documents = 20000;
    auto built = BuildQ3(config);
    TEXTJOIN_CHECK(built.ok(), "q3");
    auto prepared =
        bench::PrepareSingleJoin(built->query, *built->scenario.catalog);
    TEXTJOIN_CHECK(prepared.ok(), "prepare");
    const bench::MethodRun probe = bench::RunMethod(
        JoinMethodKind::kTS, *prepared, *built->scenario.engine);
    TEXTJOIN_CHECK(probe.applicable, "ts");
    const double rows = static_cast<double>(probe.result_rows);
    out.push_back(TimeLoop("join_ts_end_to_end", kRuns, rows, [&] {
      benchmark::DoNotOptimize(bench::RunMethod(JoinMethodKind::kTS,
                                                *prepared,
                                                *built->scenario.engine)
                                   .result_rows);
    }));
    std::vector<bench::BenchRecord> stages;
    std::vector<uint64_t> units;
    for (size_t run = 0; run < kRuns; ++run) {
      RemoteTextSource source(built->scenario.engine.get());
      pipeline::PipelineProfile profile;
      auto joined =
          ExecuteForeignJoin(JoinMethodKind::kTS, prepared->spec,
                             prepared->rows, source, 0, nullptr, {}, &profile);
      TEXTJOIN_CHECK(joined.ok() && joined->rows.size() == probe.result_rows,
                     "ts rows changed");
      for (size_t i = 0; i < profile.stages.size(); ++i) {
        const pipeline::StageStats& stage = profile.stages[i];
        if (stages.size() == i) {
          const std::string kind = pipeline::StageKindName(stage.desc.kind);
          stages.push_back({"join_ts_stage_" + SnakeCase(kind)});
          units.push_back(0);
        }
        stages[i].rows += rows;
        stages[i].seconds += stage.wall_seconds;
        units[i] += stage.units;
      }
    }
    for (size_t i = 0; i < stages.size(); ++i) {
      if (units[i] > 0) out.push_back(stages[i]);
    }
  }
  {
    // Q5's relational join (the paper's Example 6.1): JoinRows over
    // student (200 rows) x faculty (40) with no keys and the residual
    // `faculty.dept != student.dept`; rows = the 8,000 candidate pairs.
    // JoinRows selects among each student's 40 candidates in one
    // Expr::Select call, comparing dictionary codes, and writes the joined
    // ids once. The scratch-row
    // record is the path JoinRows took before it read base rows in place,
    // kept as the baseline: one reused row, the left tuple's values
    // copy-assigned over it once per left tuple and each candidate's right
    // values over the rest, evaluated per row by the test-support
    // reference evaluator. Both records bind the residual per call and
    // must keep the same pairs.
    auto built = BuildQ5(Q5Config{});
    TEXTJOIN_CHECK(built.ok(), "q5");
    auto student = built->scenario.catalog->GetTable("student");
    auto faculty = built->scenario.catalog->GetTable("faculty");
    TEXTJOIN_CHECK(student.ok() && faculty.ok(), "q5 tables");
    // Both inputs are table parts, as the executor's scans produce, so the
    // residual compares faculty.dept's dictionary codes with the left
    // tuple's student.dept, looked up once per call.
    const RowIdSet left = RowIdSet::BorrowedAll(
        (*student)->schema().WithQualifier("student"), **student);
    const RowIdSet right = RowIdSet::BorrowedAll(
        (*faculty)->schema().WithQualifier("faculty"), **faculty);
    TEXTJOIN_CHECK(built->query.relational_predicates.size() == 1,
                   "q5 has one join predicate");
    const Expr& predicate = *built->query.relational_predicates.front();
    const double candidates = static_cast<double>(left.size() * right.size());
    RowIdSet joined;
    out.push_back(TimeLoop("join_residual_q5", 200, candidates, [&] {
      auto result = JoinRows(left, right, {}, predicate.Clone());
      TEXTJOIN_CHECK(result.ok(), "q5 join");
      joined = std::move(*result);
    }));
    std::vector<size_t> scratch_row;  // (left, right) ids, pair after pair.
    out.push_back(
        TimeLoop("join_residual_q5_scratch_row", 200, candidates, [&] {
          ExprPtr residual = predicate.Clone();
          TEXTJOIN_CHECK(
              residual->Bind(left.schema().Concat(right.schema())).ok(),
              "q5 residual binds");
          const size_t left_width = left.schema().num_columns();
          Row scratch(left_width + right.schema().num_columns());
          std::vector<size_t> pairs;
          for (size_t l = 0; l < left.size(); ++l) {
            const Row& left_row = left.rows(0)[left.id(l, 0)];
            std::copy(left_row.begin(), left_row.end(), scratch.begin());
            for (size_t r = 0; r < right.size(); ++r) {
              const Row& right_row = right.rows(0)[right.id(r, 0)];
              std::copy(right_row.begin(), right_row.end(),
                        scratch.begin() + static_cast<ptrdiff_t>(left_width));
              if (ReferenceHolds(*residual, scratch)) {
                pairs.push_back(left.id(l, 0));
                pairs.push_back(right.id(r, 0));
              }
            }
          }
          scratch_row = std::move(pairs);
        }));
    TEXTJOIN_CHECK(joined.size() > 0 && joined.ids() == scratch_row,
                   "q5 join pairs differ between Select and scratch row");

    // The probe's grouping: GroupRowsByTerms over the same join in the
    // order Q5's plan runs it (faculty ⋈ student, faculty-major), on the
    // faculty.name terms its P+RTP probes; rows = the 7,058 joined tuples.
    auto plan_order = JoinRows(right, left, {}, predicate.Clone());
    TEXTJOIN_CHECK(plan_order.ok() && plan_order->size() == joined.size(),
                   "q5 join in plan order");
    ForeignJoinSpec spec;
    spec.left_schema = plan_order->schema();
    spec.selections = built->query.text_selections;
    spec.joins = built->query.text_joins;
    spec.text = built->query.text;
    auto rspec = pipeline::ResolveSpec(spec);
    TEXTJOIN_CHECK(rspec.ok() && spec.joins.size() == 2 &&
                       spec.joins[1].column_ref == "faculty.name",
                   "q5 spec");
    size_t groups = 0;
    out.push_back(TimeLoop("group_rows_q5", 200,
                           static_cast<double>(plan_order->size()), [&] {
                             groups = pipeline::GroupRowsByTerms(
                                          *rspec, *plan_order, /*mask=*/0b10)
                                          .size();
                           }));
    TEXTJOIN_CHECK(groups > 0, "q5 grouping found no keys");
  }
  {
    // Q5's probe searches: `year='year1993' and author='<name>'` (the
    // order pipeline::BuildSearch gives) for each of the 25 distinct
    // faculty names P+RTP probes, through TextEngine::Search with the
    // queries built beforehand; rows = searches, so allocs_per_row is the
    // allocations of one search. The evaluator's scratch arena is the
    // thread's, reused across searches.
    auto built = BuildQ5(Q5Config{});
    TEXTJOIN_CHECK(built.ok(), "q5");
    auto faculty = built->scenario.catalog->GetTable("faculty");
    TEXTJOIN_CHECK(faculty.ok(), "q5 faculty");
    std::set<std::string> names;
    for (const Row& row : (*faculty)->rows()) names.insert(row[0].AsString());
    TEXTJOIN_CHECK(built->query.text_selections.size() == 1, "q5 selection");
    const TextSelection& year = built->query.text_selections[0];
    std::vector<TextQueryPtr> probes;
    for (const std::string& name : names) {
      std::vector<TextQueryPtr> terms;
      terms.push_back(TextQuery::Term(year.field, year.term));
      terms.push_back(TextQuery::Term("author", name));
      probes.push_back(TextQuery::And(std::move(terms)));
    }
    const TextEngine& engine = *built->scenario.engine;
    auto search_all = [&] {
      size_t docs = 0;
      for (const TextQueryPtr& probe : probes) {
        auto result = engine.Search(*probe);
        TEXTJOIN_CHECK(result.ok(), "q5 probe search");
        docs += result->docs.size();
      }
      return docs;
    };
    const size_t expected_docs = search_all();
    out.push_back(TimeLoop("search_probe_q5", 2000,
                           static_cast<double>(probes.size()), [&] {
                             TEXTJOIN_CHECK(search_all() == expected_docs,
                                            "q5 probe results changed");
                           }));
  }
  {
    // The paper's Example 6.1 (Q5) through FederationService::Run with
    // sampled statistics: a P+RTP foreign join over the student x faculty
    // nested-loop join. rows = the relational join's tuples, the outer
    // side the plan carries as row ids; every timed run's rows and meter
    // are CHECKed against a reference service's run. The text is planned
    // once, in the warm-up: the timed runs take the plan from the cache.
    auto built = BuildQ5(Q5Config{});
    TEXTJOIN_CHECK(built.ok(), "q5");
    FederationService::Options options;
    options.text = built->scenario.text;
    options.oracle_stats = false;
    const std::string sql = built->query.ToString();
    auto reference = FederationService(built->scenario.catalog.get(),
                                       built->scenario.engine.get(), options)
                         .Run(sql);
    TEXTJOIN_CHECK(reference.ok(), "q5 reference");
    double join_tuples = 0;
    for (const auto& [node, actuals] : reference->profile.nodes) {
      if (node->kind == PlanNode::Kind::kRelationalJoin) {
        join_tuples += static_cast<double>(actuals.actual_rows);
      }
    }
    TEXTJOIN_CHECK(join_tuples > 0, "q5 plan has no relational join");
    FederationService service(built->scenario.catalog.get(),
                              built->scenario.engine.get(), options);
    TEXTJOIN_CHECK(service.Run(sql).ok(), "q5 warm-up");  // Samples stats.
    out.push_back(TimeLoop("join_prl_q5_end_to_end", 200, join_tuples, [&] {
      auto outcome = service.Run(sql);
      TEXTJOIN_CHECK(outcome.ok() &&
                         outcome->rows.rows == reference->rows.rows &&
                         outcome->meter_delta == reference->meter_delta,
                     "q5 rows or meter differ from the reference run");
    }));
  }
  {
    // Planning each paper query (Q1-Q5, sampled statistics) on a warm
    // service: Explain on a plan-cache hit, against what the hit skips —
    // ParseQuery, Enumerator::Optimize and the EXPLAIN rendering, run
    // standalone against the same service's registry and document count.
    // rows = calls; both records must render the text Explain returned
    // when it planned the query.
    Result<PaperScenario> built[] = {BuildQ1(Q1Config{}), BuildQ2(Q2Config{}),
                                     BuildQ3(Q3Config{}), BuildQ4(Q4Config{}),
                                     BuildQ5(Q5Config{})};
    for (size_t q = 0; q < std::size(built); ++q) {
      TEXTJOIN_CHECK(built[q].ok(), "paper query");
      const Scenario& scenario = built[q]->scenario;
      const std::string sql = built[q]->query.ToString();
      FederationService::Options options;
      options.text = scenario.text;
      options.oracle_stats = false;
      FederationService service(scenario.catalog.get(),
                                scenario.engine.get(), options);
      const auto planned = service.Explain(sql);  // Samples and plans.
      TEXTJOIN_CHECK(planned.ok(), "paper query explain");
      const std::string number = std::to_string(q + 1);
      std::string uncached;
      out.push_back(TimeLoop("explain_uncached_q" + number, 2000, 1.0, [&] {
        auto query = ParseQuery(sql, scenario.text);
        TEXTJOIN_CHECK(query.ok(), "parse");
        Enumerator enumerator(scenario.catalog.get(), &service.stats(),
                              scenario.engine->num_documents(),
                              scenario.engine->max_search_terms(),
                              EnumeratorOptions{});
        auto plan = enumerator.Optimize(*query);
        TEXTJOIN_CHECK(plan.ok(), "optimize");
        uncached = query->ToString() + "\n" + (*plan)->ToString(*query);
      }));
      std::string hit;
      out.push_back(TimeLoop("explain_hit_q" + number, 20000, 1.0, [&] {
        auto explained = service.Explain(sql);
        TEXTJOIN_CHECK(explained.ok(), "explain");
        hit = std::move(*explained);
      }));
      TEXTJOIN_CHECK(hit == *planned && uncached == *planned,
                     "a plan-cache hit renders another plan than planning");
    }
  }
  return out;
}

/// Prints a gate's verdict: `speedup` against its design `target` and its
/// hard `backstop`. The backstop is generous so that a noisy CI machine
/// does not flake the build; returns whether it holds.
bool Gate(const char* what, double speedup, double target, double backstop) {
  const bool pass = speedup >= backstop;
  std::printf("\n%s %.2fx — target %.1fx %s, hard floor %.1fx %s\n", what,
              speedup, target, speedup >= target ? "met" : "NOT met",
              backstop, pass ? "PASS" : "FAIL");
  return pass;
}

/// Planning budget for a plan-cache hit, per call (Explain, sampled
/// statistics).
constexpr double kExplainHitBudgetUs = 5.0;

/// Release perf-smoke gates. Block-vs-reference speedup per kernel pair,
/// gated on the geometric mean against the ≥3x design goal; Q5's
/// relational join, its residual selected per batch by Expr::Select,
/// against the per-row scratch-row path it replaced; and Explain on a
/// plan-cache hit within kExplainHitBudgetUs for every paper query.
int PerfSmoke(const std::vector<bench::BenchRecord>& records) {
  const std::pair<const char*, const char*> pairs[] = {
      {"intersect_legacy_64k", "intersect_block_64k"},
      {"intersect_skew_legacy", "intersect_skew_block"},
      {"union_legacy_64k", "union_block_64k"},
      {"phrase_legacy_16k", "phrase_block_16k"},
      {"search_conjunction_legacy", "search_conjunction_block"},
      {"search_disjunction_legacy", "search_disjunction_block"},
  };
  auto find = [&](const std::string& name) -> const bench::BenchRecord& {
    for (const bench::BenchRecord& r : records) {
      if (r.name == name) return r;
    }
    TEXTJOIN_UNREACHABLE("missing record");
  };
  bench::PrintHeader("Perf smoke — block-compressed vs reference kernels");
  std::printf("%-26s %12s %12s %10s\n", "kernel", "ref ns/row",
              "block ns/row", "speedup");
  double log_sum = 0.0;
  size_t count = 0;
  for (const auto& [reference_name, block_name] : pairs) {
    const bench::BenchRecord& reference = find(reference_name);
    const bench::BenchRecord& block = find(block_name);
    const double speedup =
        bench::NsPerRow(reference) / bench::NsPerRow(block);
    std::printf("%-26s %12.3f %12.3f %9.2fx\n", block_name,
                bench::NsPerRow(reference), bench::NsPerRow(block), speedup);
    log_sum += std::log(speedup);
    ++count;
  }
  const bool kernels_pass =
      Gate("geomean speedup", std::exp(log_sum / static_cast<double>(count)),
           /*target=*/3.0, /*backstop=*/1.5);

  bench::PrintHeader(
      "Perf smoke — Q5 join residual: batch Select vs per-row scratch row");
  const bench::BenchRecord& scratch_row =
      find("join_residual_q5_scratch_row");
  const bench::BenchRecord& batch = find("join_residual_q5");
  std::printf("%-26s %12s %12s\n", "join", "scratch ns", "batch ns");
  std::printf("%-26s %12.3f %12.3f\n", "q5 (per candidate)",
              bench::NsPerRow(scratch_row), bench::NsPerRow(batch));
  const bool residual_pass =
      Gate("speedup", bench::NsPerRow(scratch_row) / bench::NsPerRow(batch),
           /*target=*/3.0, /*backstop=*/1.1);

  bench::PrintHeader(
      "Perf smoke — planning a paper query: plan-cache hit vs from scratch");
  std::printf("%-10s %14s %12s %10s\n", "query", "uncached us", "hit us",
              "speedup");
  bool explain_pass = true;
  for (int q = 1; q <= 5; ++q) {
    const std::string number = std::to_string(q);
    const double uncached_us =
        bench::NsPerRow(find("explain_uncached_q" + number)) / 1e3;
    const double hit_us =
        bench::NsPerRow(find("explain_hit_q" + number)) / 1e3;
    std::printf("q%-9d %14.2f %12.2f %9.1fx\n", q, uncached_us, hit_us,
                uncached_us / hit_us);
    explain_pass = explain_pass && hit_us <= kExplainHitBudgetUs;
  }
  std::printf("\nplan-cache hit <= %.1f us on every paper query %s\n",
              kExplainHitBudgetUs, explain_pass ? "PASS" : "FAIL");
  return kernels_pass && residual_pass && explain_pass ? 0 : 1;
}

}  // namespace

TEXTJOIN_BENCH_ALLOC_HOOKS()

int main(int argc, char** argv) {
  std::string snapshot_path = "BENCH_vectorized.json";
  bool snapshot_only = false;
  bool perf_smoke = false;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--snapshot_only") {
      snapshot_only = true;
    } else if (arg == "--perf_smoke") {
      perf_smoke = true;
      snapshot_only = true;
    } else if (arg.rfind("--snapshot_path=", 0) == 0) {
      snapshot_path = std::string(arg.substr(std::strlen("--snapshot_path=")));
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (!snapshot_only) {
    int bench_argc = static_cast<int>(passthrough.size());
    benchmark::Initialize(&bench_argc, passthrough.data());
    if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                               passthrough.data())) {
      return 1;
    }
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  const std::vector<textjoin::bench::BenchRecord> records =
      RunVectorizedSnapshot();
  textjoin::bench::WriteBenchSnapshot(snapshot_path, "micro", records);
  std::printf("wrote %zu micro records to %s\n", records.size(),
              snapshot_path.c_str());
  return perf_smoke ? PerfSmoke(records) : 0;
}
