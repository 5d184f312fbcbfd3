#ifndef TEXTJOIN_BENCH_BENCH_UTIL_H_
#define TEXTJOIN_BENCH_BENCH_UTIL_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <string>
#include <vector>

#include "connector/remote_text_source.h"
#include "core/cost_model.h"
#include "core/executor.h"
#include "core/join_methods.h"
#include "core/single_join_optimizer.h"
#include "core/statistics.h"
#include "workload/scenario.h"

/// \file
/// Shared plumbing for the table/figure reproduction benches: run one join
/// method over a single-join scenario and report measured simulated
/// seconds; build the Section-4 cost model from measured (oracle)
/// statistics for predictions. Also the machine-readable snapshot writer
/// (BENCH_vectorized.json) that records wall-clock throughput and heap
/// allocation counts per kernel so the perf trajectory is tracked per PR.

namespace textjoin::bench {

/// A single-join query lowered to a foreign-join spec + filtered outer rows.
struct PreparedJoin {
  ForeignJoinSpec spec;
  std::vector<Row> rows;
};

/// Lowers a single-relation federated query: pushes the relational
/// selections into the outer row set and builds the foreign-join spec.
inline Result<PreparedJoin> PrepareSingleJoin(const FederatedQuery& query,
                                              const Catalog& catalog) {
  if (query.relations.size() != 1) {
    return Status::InvalidArgument("PrepareSingleJoin needs one relation");
  }
  TEXTJOIN_ASSIGN_OR_RETURN(Table * table,
                            catalog.GetTable(query.relations[0].table_name));
  PreparedJoin out;
  out.spec.left_schema =
      table->schema().WithQualifier(query.relations[0].name());
  out.spec.selections = query.text_selections;
  out.spec.joins = query.text_joins;
  out.spec.text = query.text;
  out.spec.need_document_fields = query.NeedsDocumentFields();
  bool needs_left = query.output_columns.empty();
  for (const std::string& ref : query.output_columns) {
    if (out.spec.left_schema.Resolve(ref).ok()) needs_left = true;
  }
  out.spec.left_columns_needed = needs_left;
  TEXTJOIN_ASSIGN_OR_RETURN(
      std::vector<size_t> kept,
      SelectRows(out.spec.left_schema, *table, query.relational_predicates));
  for (size_t r : kept) out.rows.push_back(table->row(r));
  return out;
}

/// Outcome of executing one method.
struct MethodRun {
  bool applicable = false;
  double simulated_seconds = 0.0;
  size_t result_rows = 0;
  AccessMeter meter;
};

/// Executes `method` over the prepared join, metering from scratch.
inline MethodRun RunMethod(JoinMethodKind method, const PreparedJoin& join,
                           TextEngine& engine, PredicateMask mask = 0,
                           CostParams params = CostParams{}) {
  RemoteTextSource source(&engine);
  MethodRun run;
  Result<ForeignJoinResult> result =
      ExecuteForeignJoin(method, join.spec, join.rows, source, mask);
  if (!result.ok()) return run;
  run.applicable = true;
  run.meter = source.meter();
  run.simulated_seconds = source.meter().SimulatedSeconds(params);
  run.result_rows = result->rows.size();
  return run;
}

/// Builds the Section-4 cost model for a prepared single join from exact
/// statistics, with N = the filtered outer row count.
inline Result<CostModel> BuildModel(const FederatedQuery& query,
                                    const PreparedJoin& join,
                                    const Catalog& catalog,
                                    const TextEngine& engine,
                                    int correlation_g = 1,
                                    CostParams params = CostParams{}) {
  StatsRegistry registry;
  TEXTJOIN_RETURN_IF_ERROR(
      ComputeExactStats(query, catalog, engine, registry));
  ForeignJoinStats stats;
  stats.num_tuples = static_cast<double>(join.rows.size());
  stats.num_documents = static_cast<double>(engine.num_documents());
  stats.max_terms = static_cast<double>(engine.max_search_terms());
  stats.correlation_g = correlation_g;
  stats.need_document_fields = join.spec.need_document_fields;
  for (const TextJoinPredicate& pred : query.text_joins) {
    TEXTJOIN_ASSIGN_OR_RETURN(
        TextPredicateStats ps,
        registry.GetTextJoinStats(pred.column_ref, pred.field));
    // N_i: distinct values of the column among the filtered rows.
    auto idx = join.spec.left_schema.Resolve(pred.column_ref);
    TEXTJOIN_RETURN_IF_ERROR(idx.status());
    std::set<std::string> distinct;
    for (const Row& row : join.rows) {
      if (row.at(*idx).type() == ValueType::kString) {
        distinct.insert(row.at(*idx).AsString());
      }
    }
    ps.num_distinct = static_cast<double>(distinct.size());
    stats.predicates.push_back(ps);
  }
  double joint_docs = stats.num_documents;
  for (const TextSelection& sel : query.text_selections) {
    TEXTJOIN_ASSIGN_OR_RETURN(
        TextSelectionStats ss,
        registry.GetTextSelectionStats(sel.term, sel.field));
    joint_docs = std::min(joint_docs, ss.match_docs);
    stats.selection_postings += ss.postings;
    stats.num_selection_terms += 1;
  }
  stats.selection_match_docs =
      query.text_selections.empty() ? 0.0 : joint_docs;
  return CostModel(params, std::move(stats));
}

/// Applicability flags derived from a query (for RankMethods).
inline MethodApplicability ApplicabilityOf(const FederatedQuery& query,
                                           const PreparedJoin& join) {
  MethodApplicability app;
  app.has_selections = !query.text_selections.empty();
  app.left_columns_needed = join.spec.left_columns_needed;
  app.need_document_fields = join.spec.need_document_fields;
  return app;
}

/// Prints a horizontal rule + centered title.
inline void PrintHeader(const std::string& title) {
  std::printf("\n==============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("==============================================================\n");
}

// ---------------------------------------------------------------------------
// Machine-readable benchmark snapshots (BENCH_vectorized.json)

/// Global heap-allocation counter. Only moves in binaries that instantiate
/// TEXTJOIN_BENCH_ALLOC_HOOKS() (which replaces global operator new with a
/// counting malloc shim); elsewhere every record reports zero allocations.
inline std::atomic<uint64_t> g_heap_allocs{0};

/// One measured kernel: `rows` is the kernel's unit of work per the whole
/// timed region (input postings scanned, result rows produced, ... — the
/// record's name says which), `seconds` the wall-clock for the region and
/// `allocs` the heap allocations it performed. Derived rates (rows/sec,
/// ns/row, allocs/row) are computed at write time.
struct BenchRecord {
  std::string name;
  double rows = 0.0;
  double seconds = 0.0;
  uint64_t allocs = 0;
};

/// Times `iters` calls of `fn` and returns the record. `rows_per_iter` is
/// the per-call unit of work; the record aggregates over all iterations so
/// per-row rates are per single unit.
template <typename F>
inline BenchRecord TimeLoop(std::string name, size_t iters,
                            double rows_per_iter, F&& fn) {
  BenchRecord record;
  record.name = std::move(name);
  record.rows = rows_per_iter * static_cast<double>(iters);
  const uint64_t allocs_before =
      g_heap_allocs.load(std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  for (size_t i = 0; i < iters; ++i) fn();
  const auto stop = std::chrono::steady_clock::now();
  record.seconds = std::chrono::duration<double>(stop - start).count();
  record.allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - allocs_before;
  return record;
}

/// Derived rates for gates and reports.
inline double NsPerRow(const BenchRecord& r) {
  return r.rows > 0 ? r.seconds * 1e9 / r.rows : 0.0;
}
inline double RowsPerSec(const BenchRecord& r) {
  return r.seconds > 0 ? r.rows / r.seconds : 0.0;
}

/// Writes (or merges into) the snapshot file at `path`. The file holds one
/// record per line inside a top-level JSON array; records from other
/// suites already in the file are preserved, records from `suite` are
/// replaced wholesale — so bench_micro ("micro") and bench_scale ("scale")
/// can both target the same BENCH_vectorized.json in either order.
inline void WriteBenchSnapshot(const std::string& path,
                               const std::string& suite,
                               const std::vector<BenchRecord>& records) {
  std::vector<std::string> lines;
  {
    std::ifstream in(path);
    std::string line;
    const std::string mine = "\"suite\": \"" + suite + "\"";
    while (std::getline(in, line)) {
      const size_t at = line.find("{\"suite\": ");
      if (at == std::string::npos) continue;
      if (line.find(mine) != std::string::npos) continue;
      std::string record = line.substr(at);
      if (!record.empty() && record.back() == ',') record.pop_back();
      lines.push_back(std::move(record));
    }
  }
  for (const BenchRecord& r : records) {
    char buf[512];
    std::snprintf(
        buf, sizeof(buf),
        "{\"suite\": \"%s\", \"name\": \"%s\", \"rows\": %.0f, "
        "\"seconds\": %.9f, \"rows_per_sec\": %.1f, \"ns_per_row\": %.3f, "
        "\"allocs\": %llu, \"allocs_per_row\": %.6f}",
        suite.c_str(), r.name.c_str(), r.rows, r.seconds, RowsPerSec(r),
        NsPerRow(r), static_cast<unsigned long long>(r.allocs),
        r.rows > 0 ? static_cast<double>(r.allocs) / r.rows : 0.0);
    lines.push_back(buf);
  }
  std::ofstream out(path, std::ios::trunc);
  out << "{\n  \"schema\": \"textjoin-bench-v1\",\n  \"records\": [\n";
  for (size_t i = 0; i < lines.size(); ++i) {
    out << "    " << lines[i] << (i + 1 < lines.size() ? ",\n" : "\n");
  }
  out << "  ]\n}\n";
}

}  // namespace textjoin::bench

/// Replaces global operator new/delete with a counting malloc shim feeding
/// textjoin::bench::g_heap_allocs. Instantiate exactly once, at namespace
/// scope, in a bench binary that wants allocation counts. Over-aligned
/// allocations keep the default (uncounted) aligned operators, which pair
/// correctly since those are not replaced here. The hooks are noinline so
/// the optimizer never pairs the malloc/free bodies against call sites
/// (GCC's -Wmismatched-new-delete cannot see that the replacement new is
/// malloc-backed).
#define TEXTJOIN_BENCH_ALLOC_HOOKS()                                         \
  __attribute__((noinline)) void* operator new(std::size_t size) {           \
    ::textjoin::bench::g_heap_allocs.fetch_add(1,                            \
                                               std::memory_order_relaxed);   \
    if (void* p = std::malloc(size ? size : 1)) return p;                    \
    throw std::bad_alloc();                                                  \
  }                                                                          \
  __attribute__((noinline)) void* operator new[](std::size_t size) {         \
    return ::operator new(size);                                             \
  }                                                                          \
  __attribute__((noinline)) void operator delete(void* p) noexcept {         \
    std::free(p);                                                            \
  }                                                                          \
  __attribute__((noinline)) void operator delete[](void* p) noexcept {       \
    std::free(p);                                                            \
  }                                                                          \
  __attribute__((noinline)) void operator delete(void* p,                    \
                                                 std::size_t) noexcept {     \
    std::free(p);                                                            \
  }                                                                          \
  __attribute__((noinline)) void operator delete[](void* p,                  \
                                                   std::size_t) noexcept {   \
    std::free(p);                                                            \
  }

#endif  // TEXTJOIN_BENCH_BENCH_UTIL_H_
