#ifndef TEXTJOIN_CORE_JOIN_METHODS_H_
#define TEXTJOIN_CORE_JOIN_METHODS_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "connector/resilience.h"
#include "connector/text_source.h"
#include "core/cost_model.h"
#include "core/federated_query.h"
#include "relational/schema.h"
#include "relational/tuple.h"

/// \file
/// The paper's foreign-join execution methods (Section 3). Every method
/// takes the same inputs — the outer relational rows, the text predicates,
/// and the opaque TextSource — and produces the same logical result: the
/// join of the rows with the matching documents. They differ only in how
/// many searches, probes, and document retrievals they spend, which the
/// TextSource's meter records.

namespace textjoin {

namespace pipeline {
struct PipelineProfile;
}  // namespace pipeline

/// The six join methods of the paper.
enum class JoinMethodKind {
  kTS,     ///< Tuple substitution (distinct-tuple variant).
  kRTP,    ///< Relational text processing.
  kSJ,     ///< Semi-join: OR-batched searches, docid-only output.
  kSJRTP,  ///< Semi-join + relational text processing (general output).
  kPTS,    ///< Probing + tuple substitution.
  kPRTP,   ///< Probing + relational text processing.
};

/// Returns the paper's name for `kind` ("TS", "RTP", "SJ", "SJ+RTP",
/// "P+TS", "P+RTP").
const char* JoinMethodName(JoinMethodKind kind);

/// Static description of one foreign join, independent of the input rows.
struct ForeignJoinSpec {
  Schema left_schema;                      ///< Schema of the outer rows.
  std::vector<TextSelection> selections;   ///< Constant text predicates.
  std::vector<TextJoinPredicate> joins;    ///< column-in-field predicates;
                                           ///< columns resolve in
                                           ///< left_schema.
  TextRelationDecl text;                   ///< Text-side relation shape.
  bool need_document_fields = true;  ///< Output reads document fields
                                     ///< (forces long-form retrieval).
  bool left_columns_needed = true;   ///< Output reads outer columns (false
                                     ///< only for doc-side semi-joins like
                                     ///< the paper's Q2).
};

/// The joined rows. Schema is left_schema ⨯ text schema
/// (docid + one column per declared field). Methods that legitimately skip
/// work leave the skipped columns NULL: document fields are NULL when
/// !need_document_fields, and outer columns are NULL for kSJ.
struct ForeignJoinResult {
  Schema schema;
  std::vector<Row> rows;
};

/// Executes the foreign join with the chosen method. `probe_mask` selects
/// the probe columns for kPTS / kPRTP (bit i = i-th entry of spec.joins)
/// and must be 0 for the other methods.
///
/// When `pool` is non-null, the independent text-source round-trips of the
/// method (per-combination searches, OR-batches, document fetches) are
/// overlapped across its threads. Output row order and meter totals are
/// identical to serial execution: parallel phases write into per-index
/// slots that are assembled in deterministic order, and every method
/// issues the same set of operations regardless of parallelism (P+TS keeps
/// its probe-cache-ordered search sequence serial and overlaps only the
/// fetches).
///
/// Fails before any source traffic when the method is inapplicable, with
/// InvalidArgument unless noted:
///  - kTS needs at least one text predicate (a selection or a join
///    predicate) to instantiate;
///  - kRTP needs text selections: its one search is selections-only;
///  - kSJ needs join predicates and !left_columns_needed;
///  - kSJRTP needs join predicates;
///  - kPTS / kPRTP need a non-zero probe mask (OutOfRange when it selects
///    a predicate beyond spec.joins); the other methods need a zero one.
///
/// `policy` decides what happens when a source operation fails even after
/// the resilience layer (if the source is wrapped in one) gave up. The
/// default fail-fast policy reproduces the historical behavior exactly:
/// the first failure aborts the join. kRetryThenFail adds method-level
/// recovery (SJ re-splits failed OR-batches down to per-disjunct searches)
/// and absorbs advisory failures that cannot change the answer.
/// kBestEffort additionally skips failed units of work and reports the
/// loss through the policy's AtomicDegradation sink.
///
/// Every method executes as a staged pipeline (core/pipeline.h): this
/// function builds a StageScheduler over `pool`, `source` and `policy` —
/// which adopts the caller's ambient CurrentCancelToken() as the query's
/// cancel token and deadline — and runs the method's composition on it
/// (pipeline::RunForeignJoin) over `left_rows` as a one-part RowIdSet.
/// When `stage_profile` is non-null it receives the per-stage wall-clock
/// and meter attribution of the execution.
Result<ForeignJoinResult> ExecuteForeignJoin(
    JoinMethodKind method, const ForeignJoinSpec& spec,
    const std::vector<Row>& left_rows, TextSource& source,
    PredicateMask probe_mask = 0, ThreadPool* pool = nullptr,
    const FaultPolicy& policy = {},
    pipeline::PipelineProfile* stage_profile = nullptr);

/// The probe used as a semi-join reducer (Section 6, "Probe as a
/// Semi-join"): sends one probe per distinct combination of the probe
/// columns and returns the input rows whose combination matched at least
/// one document. Never changes the final query answer, only the sizes.
/// Probes for distinct combinations are independent and overlap across
/// `pool` when non-null. Because the reducer is purely advisory, a
/// recovering `policy` (retry-then-fail or best-effort) absorbs probe
/// failures by keeping the affected rows — the answer is unchanged, only
/// the reduction is weaker.
///
/// Runs as a three-stage pipeline composition on its own StageScheduler,
/// which adopts the caller's ambient CurrentCancelToken(), over
/// `left_rows` as a one-part RowIdSet, and copies out the surviving rows
/// (the plan executor composes the reducer into its shared scheduler
/// through pipeline::RunProbeReducer and keeps the surviving ids instead).
/// `stage_profile` receives the reducer's per-stage account when non-null.
Result<std::vector<Row>> ProbeSemiJoinReduce(
    const ForeignJoinSpec& spec, const std::vector<Row>& left_rows,
    TextSource& source, PredicateMask probe_mask, ThreadPool* pool = nullptr,
    const FaultPolicy& policy = {},
    pipeline::PipelineProfile* stage_profile = nullptr);

}  // namespace textjoin

#endif  // TEXTJOIN_CORE_JOIN_METHODS_H_
