// Cross-stage overlap: staged pipeline vs phase-barrier execution.
//
// The staged pipeline (core/pipeline.h) removes the per-phase barriers of
// the earlier parallel engine: a batch search's fetches start the moment
// that batch answers, overlapping the remaining searches. This bench
// reconstructs the old phase-parallel execution (all searches, BARRIER,
// all fetches) for SJ — issuing the exact same source operations — and
// measures both under simulated server latency at parallelism 8, on the
// Fig.1-style university workload.
//
// The contract being exercised is twofold:
//  - wall-clock: the pipeline must be measurably faster than the barrier
//    execution whenever the search waves are ragged (the last wave leaves
//    workers idle that the pipeline fills with fetches);
//  - identity: rows AND meter totals must be byte-identical across the
//    barrier baseline, the serial pipeline, and the parallel pipeline.
//
// Emits one JSON record per workload and a machine-checked shape line:
// PASS requires >= 1.15x speedup over the barrier execution on at least
// one workload with identity holding everywhere.

#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench/bench_util.h"
#include "common/text_match.h"
#include "common/thread_pool.h"
#include "connector/remote_text_source.h"
#include "core/pipeline.h"
#include "sql/parser.h"
#include "workload/university.h"

namespace textjoin {
namespace {

std::vector<std::string> RenderRows(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(RowToString(row));
  return out;
}

/// The pre-pipeline phase-parallel SJ: ParallelFor over the OR-batch
/// searches, a BARRIER, then ParallelFor over the deduplicated fetches.
/// Issues exactly the operations RunSJ issues (same batches under the same
/// term limit, same first-seen distinct fetch set), so meters must match.
Result<ForeignJoinResult> BarrierSemiJoin(const ForeignJoinSpec& spec,
                                          const std::vector<Row>& left_rows,
                                          TextSource& source,
                                          ThreadPool* pool) {
  namespace pl = pipeline;
  TEXTJOIN_ASSIGN_OR_RETURN(pl::ResolvedSpec rspec, pl::ResolveSpec(spec));
  const PredicateMask all = FullMask(spec.joins.size());
  const pl::KeyGroups groups = pl::GroupRowsByTerms(
      rspec, RowIdSet::BorrowedAll(spec.left_schema, left_rows), all);

  const size_t m = source.max_search_terms();
  const size_t capacity =
      std::max<size_t>(1, (m - spec.selections.size()) / spec.joins.size());
  std::vector<std::pair<size_t, size_t>> ranges;
  for (size_t b = 0; b < groups.size(); b += capacity) {
    ranges.emplace_back(b, std::min(b + capacity, groups.size()));
  }

  // Phase 1: every batch search; nothing downstream may start (BARRIER).
  std::vector<std::vector<std::string>> answers(ranges.size());
  Status failure = Status::OK();
  std::mutex mu;
  ParallelFor(pool, ranges.size(), [&](size_t b) {
    std::vector<TextQueryPtr> disjuncts;
    for (size_t i = ranges[b].first; i < ranges[b].second; ++i) {
      disjuncts.push_back(pl::BuildDisjunct(rspec, groups.terms[i], all));
    }
    std::vector<TextQueryPtr> children;
    for (const TextSelection& sel : spec.selections) {
      children.push_back(TextQuery::Term(sel.field, sel.term));
    }
    children.push_back(TextQuery::Or(std::move(disjuncts)));
    auto searched = source.Search(*TextQuery::And(std::move(children)));
    std::lock_guard<std::mutex> lock(mu);
    if (!searched.ok()) {
      if (failure.ok()) failure = searched.status();
      return;
    }
    answers[b] = *std::move(searched);
  });
  TEXTJOIN_RETURN_IF_ERROR(failure);

  // Dedup in first-seen batch-major order, then phase 2: every fetch.
  std::vector<std::string> distinct;
  std::set<std::string> seen;
  for (const std::vector<std::string>& docids : answers) {
    for (const std::string& docid : docids) {
      if (seen.insert(docid).second) distinct.push_back(docid);
    }
  }
  std::vector<Document> docs(distinct.size());
  if (spec.need_document_fields) {
    ParallelFor(pool, distinct.size(), [&](size_t d) {
      auto fetched = source.Fetch(distinct[d]);
      if (!fetched.ok()) {
        std::lock_guard<std::mutex> lock(mu);
        if (failure.ok()) failure = fetched.status();
        return;
      }
      docs[d] = *std::move(fetched);
    });
    TEXTJOIN_RETURN_IF_ERROR(failure);
  }

  ForeignJoinResult result;
  result.schema = rspec.output_schema;
  const Row null_left(spec.left_schema.num_columns(), Value::Null());
  for (size_t d = 0; d < distinct.size(); ++d) {
    Row doc_row = {Value::Str(distinct[d])};
    for (const std::string& field : spec.text.fields) {
      doc_row.push_back(
          spec.need_document_fields
              ? Value::Str(JoinFieldValues(docs[d].FieldValues(field)))
              : Value::Null());
    }
    result.rows.push_back(ConcatRows(null_left, doc_row));
  }
  return result;
}

struct Measurement {
  double barrier_ms = 0.0;
  double pipeline_ms = 0.0;
  double speedup = 0.0;
  bool identical = false;
};

Measurement MeasureWorkload(const char* name,
                            const bench::PreparedJoin& join,
                            TextEngine& engine, SimulatedLatency latency,
                            int parallelism) {
  auto run = [&](auto&& fn) {
    RemoteTextSource source(&engine);
    source.set_simulated_latency(latency);
    const auto t0 = std::chrono::steady_clock::now();
    auto result = fn(source);
    const auto t1 = std::chrono::steady_clock::now();
    TEXTJOIN_CHECK(result.ok(), "%s", result.status().ToString().c_str());
    return std::tuple(RenderRows(result->rows), source.meter(),
                      std::chrono::duration<double, std::milli>(t1 - t0)
                          .count());
  };

  ThreadPool pool(parallelism - 1);
  // Serial pipeline: the identity reference.
  const auto [serial_rows, serial_meter, serial_ms] =
      run([&](TextSource& source) {
        return ExecuteForeignJoin(JoinMethodKind::kSJ, join.spec, join.rows,
                                  source);
      });

  // Best of three repetitions per execution mode: single runs are noisy on
  // loaded machines, and the contract is about the achievable overlap, not
  // one scheduling accident. Identity must hold on EVERY repetition.
  constexpr int kReps = 3;
  Measurement m;
  m.identical = true;
  double barrier_ms = 0.0;
  double pipe_ms = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    // Old phase-parallel execution (barriers between stages).
    const auto [barrier_rows, barrier_meter, ms_b] =
        run([&](TextSource& source) {
          return BarrierSemiJoin(join.spec, join.rows, source, &pool);
        });
    // Staged pipeline (cross-stage overlap).
    const auto [pipe_rows, pipe_meter, ms_p] = run([&](TextSource& source) {
      return ExecuteForeignJoin(JoinMethodKind::kSJ, join.spec, join.rows,
                                source, /*probe_mask=*/0, &pool);
    });
    m.identical = m.identical && barrier_rows == serial_rows &&
                  pipe_rows == serial_rows && barrier_meter == serial_meter &&
                  pipe_meter == serial_meter;
    if (rep == 0 || ms_b < barrier_ms) barrier_ms = ms_b;
    if (rep == 0 || ms_p < pipe_ms) pipe_ms = ms_p;
  }
  m.barrier_ms = barrier_ms;
  m.pipeline_ms = pipe_ms;
  m.speedup = barrier_ms / pipe_ms;
  std::printf(
      "{\"bench\":\"pipeline_overlap\",\"workload\":\"%s\","
      "\"parallelism\":%d,\"serial_ms\":%.1f,\"barrier_ms\":%.1f,"
      "\"pipeline_ms\":%.1f,\"speedup\":%.3f,\"identical\":%s,"
      "\"meter\":\"%s\"}\n",
      name, parallelism, serial_ms, barrier_ms, pipe_ms, m.speedup,
      m.identical ? "true" : "false", serial_meter.ToString().c_str());
  return m;
}

int Run() {
  bench::PrintHeader(
      "Cross-stage overlap: staged pipeline vs phase-barrier execution\n"
      "(SJ OR-batches; fetches of answered batches overlap the remaining\n"
      "searches; rows and meters must be byte-identical throughout)");

  constexpr int kParallelism = 8;

  // Fig.1-style workload. The term limit is chosen so the OR-batch count
  // is just past a multiple of the parallelism: the last search wave
  // leaves workers idle, which only the pipeline can fill with fetches.
  UniversityConfig config;
  config.num_students = 120;
  config.num_documents = 1500;
  auto workload = BuildUniversity(config);
  TEXTJOIN_CHECK(workload.ok(), "%s", workload.status().ToString().c_str());
  workload->engine->set_max_search_terms(13);

  SimulatedLatency latency;
  latency.search = std::chrono::microseconds(25000);
  latency.fetch = std::chrono::microseconds(2000);

  // SJ long-form: docids + titles projected (doc-side semi-join).
  auto long_query = ParseQuery(
      "select mercury.docid, mercury.title from student, mercury "
      "where student.name in mercury.author",
      workload->text);
  TEXTJOIN_CHECK(long_query.ok(), "%s",
                 long_query.status().ToString().c_str());
  auto long_join = bench::PrepareSingleJoin(*long_query, *workload->catalog);
  TEXTJOIN_CHECK(long_join.ok(), "%s", long_join.status().ToString().c_str());

  // Fig.2-style variant: selections narrow the matched set, fewer fetches
  // per batch (overlap still wins on the ragged search waves).
  auto sel_query = ParseQuery(
      "select mercury.docid, mercury.title from student, mercury "
      "where 'caching' in mercury.title and student.name in mercury.author",
      workload->text);
  TEXTJOIN_CHECK(sel_query.ok(), "%s", sel_query.status().ToString().c_str());
  auto sel_join = bench::PrepareSingleJoin(*sel_query, *workload->catalog);
  TEXTJOIN_CHECK(sel_join.ok(), "%s", sel_join.status().ToString().c_str());

  const Measurement plain = MeasureWorkload("sj_long_form", *long_join,
                                            *workload->engine, latency,
                                            kParallelism);
  const Measurement selective = MeasureWorkload("sj_with_selection",
                                                *sel_join, *workload->engine,
                                                latency, kParallelism);

  const bool identical = plain.identical && selective.identical;
  const double best = std::max(plain.speedup, selective.speedup);
  const bool pass = identical && best >= 1.15;
  std::printf(
      "{\"bench\":\"pipeline_overlap\",\"check\":\"shape\","
      "\"best_speedup\":%.3f,\"identical\":%s,\"pass\":%s}\n",
      best, identical ? "true" : "false", pass ? "true" : "false");
  std::printf(pass ? "PASS\n" : "FAIL\n");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace textjoin

int main() { return textjoin::Run(); }
