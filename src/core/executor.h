#ifndef TEXTJOIN_CORE_EXECUTOR_H_
#define TEXTJOIN_CORE_EXECUTOR_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "connector/resilience.h"
#include "connector/text_source.h"
#include "core/federated_query.h"
#include "core/pipeline.h"
#include "core/plan.h"
#include "relational/catalog.h"

/// \file
/// Executes PrL plans against the catalog and the external text source.

namespace textjoin {

/// The materialized output of a query execution.
struct ExecutionResult {
  Schema schema;
  std::vector<Row> rows;
};

/// Per-node runtime measurements for EXPLAIN ANALYZE.
struct NodeProfile {
  size_t actual_rows = 0;     ///< Rows the node emitted.
  AccessMeter meter_delta;    ///< Text-source charges attributable to it.
  /// Per-stage breakdown for nodes that run on the staged pipeline
  /// (foreign-join and probe nodes): wall-clock and meter attribution per
  /// stage. Empty for relational nodes.
  pipeline::PipelineProfile stages;
};

/// Profile of one execution: per-node actuals, keyed by plan node. The
/// query-wide accounts (degradation, cache, overload, shards, corpus pin)
/// live in the service's QueryOutcome.
struct ExecutionProfile {
  std::map<const PlanNode*, NodeProfile> nodes;
};

/// How ExplainAnalyze renders its output.
///
///  - kFull: everything, including wall-clock fields (stage wall=,
///    overload admission_wait=) — the operator-facing default.
///  - kStable: deterministic output for the golden-explain regression wall
///    (tests/goldens/, DESIGN.md §15). Wall-clock and latency fields are
///    normalized out; every remaining field — plan shape, estimated and
///    actual rows, simulated text-cost, meter/stage/cache/overload/shard
///    counters — is byte-deterministic for a fixed query, corpus and
///    stats profile, across parallelism levels and repeated runs.
enum class RenderMode {
  kFull,
  kStable,
};

/// Renders the plan with estimated AND actual rows / costs per node, plus
/// each pipeline-backed node's stage and cache lines. ExplainAnalyze(const
/// QueryOutcome&) in sql/federation_service.h adds the query-wide lines.
std::string ExplainAnalyze(const PlanNode& root, const FederatedQuery& query,
                           const ExecutionProfile& profile,
                           const CostParams& params = CostParams{},
                           RenderMode mode = RenderMode::kFull);

/// Knobs controlling how a plan executes. `parallelism` is the number of
/// concurrent text-source operations a foreign-join / probe node may have
/// in flight; 1 means fully serial execution. Parallel execution produces
/// byte-identical results AND meter totals to serial execution (see
/// DESIGN.md, "Concurrency model") — it only changes wall-clock time.
/// The executor clamps `parallelism` to the source's advertised
/// max_concurrency() (sources that are not safe to call concurrently
/// advertise 1 and get serial execution instead of silent races).
///
/// `failure_mode` decides how execution reacts when a text-source
/// operation fails even after the source's own resilience layer (if any)
/// gave up — see FailureMode in connector/resilience.h. The default
/// fail-fast reproduces the historical behavior.
///
/// Cancellation and the query deadline are not options: Execute() runs
/// under the caller's ambient query token (CancelScope), which the stage
/// scheduler adopts — see pipeline::StageScheduler.
struct ExecutorOptions {
  int parallelism = 1;
  FailureMode failure_mode = FailureMode::kFailFast;
};

/// Walks a plan tree bottom-up. Every node yields a RowIdSet (DESIGN.md
/// §14): a scan, the ids of its table's rows that pass its pushed-down
/// filters; a relational join, JoinRows's pairs of its inputs' tuples; a
/// probe node, the tuples the probe reducer keeps; and the foreign join,
/// its chosen method's output over its input's tuples, materialized and
/// held as one new part. Execute() gathers the query's SELECT list from
/// the root's tuples, the one place the plan's rows are built.
class PlanExecutor {
 public:
  /// All pointers must outlive the executor. When `options.parallelism > 1`
  /// and `pool` is null, the executor owns a pool of `parallelism - 1`
  /// helper threads (the calling thread participates in every parallel
  /// loop). A caller-provided `pool` is shared, not owned — this lets one
  /// service run many executors over one set of threads.
  explicit PlanExecutor(const Catalog* catalog, TextSource* source,
                        ExecutorOptions options = {},
                        ThreadPool* pool = nullptr)
      : catalog_(catalog), source_(source), options_(options), pool_(pool) {
    // Respect the source's concurrency contract: a cap below the requested
    // parallelism clamps it. A caller-provided pool cannot enforce the cap
    // (its width is fixed), so a clamped executor falls back to an owned,
    // correctly-sized pool.
    const int cap = source_ != nullptr ? source_->max_concurrency() : 0;
    if (cap > 0 && options_.parallelism > cap) {
      options_.parallelism = cap;
      pool_ = nullptr;
    }
    if (options_.parallelism <= 1) {
      pool_ = nullptr;
    } else if (pool_ == nullptr) {
      owned_pool_ = std::make_unique<ThreadPool>(options_.parallelism - 1);
      pool_ = owned_pool_.get();
    }
  }

  /// Executes `root` for `query` and applies the query's projection, under
  /// the calling thread's ambient CurrentCancelToken(): once it fires,
  /// remaining text-source operations abandon and the query errors out
  /// with kCancelled; once its deadline passes, they are shed instead of
  /// issued (under best-effort the query finishes with the rows it has,
  /// under fail-fast it aborts with DeadlineExceeded).
  /// When `profile` is non-null, records per-node actual rows and meter
  /// deltas (requires the source to be — or decorate — a MeteredTextSource;
  /// deltas are zero otherwise). When `degradation` is non-null, receives
  /// the execution's skip/re-split/shed/cancel account (always `complete`
  /// under fail-fast when nothing was shed or cancelled).
  Result<ExecutionResult> Execute(const PlanNode& root,
                                  const FederatedQuery& query,
                                  ExecutionProfile* profile = nullptr,
                                  DegradationReport* degradation = nullptr);

 private:
  /// Exec wraps ExecNode with profile bookkeeping (actual row counts).
  /// `sched` is the execution's shared stage scheduler (null for plans
  /// without a text source): every pipeline-backed node joins its DAG, so a
  /// multi-join PrL plan executes as one composed pipeline.
  Result<RowIdSet> Exec(const PlanNode& node, const FederatedQuery& query,
                        ExecutionProfile* profile,
                        pipeline::StageScheduler* sched);
  Result<RowIdSet> ExecNode(const PlanNode& node, const FederatedQuery& query,
                            ExecutionProfile* profile,
                            pipeline::StageScheduler* sched);

  /// Builds the foreign-join spec of foreign-join `node` for the text join
  /// of `query` with `left_schema` as the outer side.
  ForeignJoinSpec BuildSpec(const PlanNode& node, const FederatedQuery& query,
                            const Schema& left_schema) const;

  const Catalog* catalog_;
  TextSource* source_;
  ExecutorOptions options_;
  ThreadPool* pool_ = nullptr;
  std::unique_ptr<ThreadPool> owned_pool_;
};

/// Reference evaluation: executes `query` by brute force (cross product of
/// relations x documents, filtering every conjunct relationally, matching
/// every document in `all_documents`). Exponentially expensive but
/// obviously correct — used by tests and benches as ground truth. It
/// materializes every intermediate row and reads no text source or meter,
/// so it shares nothing with the executor's row-id sets.
Result<ExecutionResult> ReferenceExecute(
    const FederatedQuery& query, const Catalog& catalog,
    const std::vector<Document>& all_documents);

}  // namespace textjoin

#endif  // TEXTJOIN_CORE_EXECUTOR_H_
