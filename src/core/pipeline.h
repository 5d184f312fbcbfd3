#ifndef TEXTJOIN_CORE_PIPELINE_H_
#define TEXTJOIN_CORE_PIPELINE_H_

#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "connector/overload.h"
#include "connector/resilience.h"
#include "connector/text_cache.h"
#include "connector/text_source.h"
#include "core/join_methods.h"
#include "relational/table.h"
#include "relational/tuple.h"
#include "text/query.h"

/// \file
/// The staged execution pipeline (DESIGN.md, "Staged execution pipeline").
/// Every foreign-join method of the paper decomposes into the same small
/// set of stages — distinct-key grouping, probe filtering, query building,
/// search dispatch, document fetch, relational matching, ordered assembly —
/// and the six methods differ only in which stages they compose and how.
/// This file provides:
///
///  - the stage taxonomy (StageKind / StageDesc) and per-stage runtime
///    accounting (StageStats / PipelineProfile);
///  - StageScheduler: ONE scheduler owning parallelism, FaultPolicy
///    handling, metering, the session probe store, the query's cancel
///    token, and deterministic failure selection for all methods. It
///    pipelines ACROSS stages: a unit may spawn downstream units (search
///    answers spawn fetches) that execute while sibling upstream units are
///    still in flight, so there is no barrier between stages;
///  - the parts every composition is built from, each written once:
///    the grouped-search front (GroupAndBuildSearches) and the OR-batch
///    front (SpawnOrBatches); DocFetcher, slot-addressed document
///    retrieval with a per-search and a deduplicating entry, the optional
///    fetch-then-match unit (MatchEach), and the one place a document
///    becomes an output row; and the assemblies, one per replay order
///    (AssembleGroupOrder, AssembleMatchedDocs over FirstSeenSlots or
///    document order) on the one BatchAssembler;
///  - the shared spec-resolution and query-building helpers;
///  - RunForeignJoin / RunProbeReducer: the one entry each for a join
///    method's composition and for the probe reducer on a given scheduler.
///    Every composition registers its own stages as it runs and adds only
///    its own logic to the parts.
///
/// Determinism contract: result rows AND meter totals are byte-identical
/// to serial execution at any parallelism. The argument: (1) the set of
/// issued source operations is a pure function of per-operation outcomes,
/// never of scheduling order; (2) meter charges are commutative sums over
/// that set; (3) every unit writes into a pre-assigned slot and assembly
/// replays a deterministic order computed from the answers, not from
/// completion order. Failure reporting is deterministic too: when several
/// units fail, Wait() returns the failure of the minimum (stage, ordinal)
/// pair, independent of which failed first in wall-clock time.

namespace textjoin::pipeline {

// ---------------------------------------------------------------------------
// Stage taxonomy

/// The reusable stages every join method composes from.
enum class StageKind {
  kDistinctKeys,    ///< Group outer rows by join-key combination.
  kProbeFilter,     ///< Probe-cache lookups / advisory probes (P+TS, reducer).
  kQueryBuild,      ///< Instantiate Boolean searches (per-tuple or OR-batch).
  kSearchDispatch,  ///< Issue the searches to the text source.
  kFetch,           ///< Retrieve document long forms.
  kMatch,           ///< Relational-side matching (RTP string match / residual).
  kAssemble,        ///< Deterministic ordered result assembly.
};

/// "DistinctKeys", "ProbeFilter", ...
const char* StageKindName(StageKind kind);

/// One stage of a method composition: the kind plus a short detail string
/// describing the method-specific variant ("or-batch+resplit", ...).
struct StageDesc {
  StageKind kind;
  std::string detail;

  /// "QueryBuild(or-batch+resplit)".
  std::string ToString() const;
};

/// Runtime account of one stage: units executed, wall-clock attributed to
/// the stage, and the stage's share of the source meter. Wall-clock is
/// exact and non-overlapping: a unit's time excludes the source operations
/// it issued (those are charged to the operation's own stage), so stage
/// times sum to total busy time. Meter attribution covers invocations,
/// short/long transmissions and relational matches; postings_processed
/// cannot be split per stage (only the remote knows it) and stays a
/// node-level number.
struct StageStats {
  StageDesc desc;
  uint64_t units = 0;            ///< Work units the stage executed.
  double wall_seconds = 0.0;     ///< Busy time attributed to the stage.
  uint64_t invocations = 0;      ///< Successful source calls it issued.
  uint64_t short_docs = 0;       ///< Short-form results it received.
  uint64_t long_docs = 0;        ///< Long-form documents it fetched.
  uint64_t relational_matches = 0;  ///< Documents it string-matched.
  // Cross-query cache traffic of the stage's operations (text_cache.h).
  // Hits/coalesced operations charge no invocations/docs above — the stage
  // profile mirrors exactly what the source meter saw.
  uint64_t cache_hits = 0;       ///< Served from the cross-query cache.
  uint64_t cache_misses = 0;     ///< Went upstream (and seeded the cache).
  uint64_t cache_coalesced = 0;  ///< Served by another op's in-flight call.

  /// "SearchDispatch(per-batch): units=4 wall=20.1ms inv=4 short=37".
  /// Cache counters render only when nonzero (cache-off output unchanged).
  /// `stable` omits the wall-clock field — every remaining counter is
  /// deterministic for a fixed plan and corpus, which is what the golden
  /// EXPLAIN files (RenderMode::kStable) diff against.
  std::string ToString(bool stable = false) const;
};

/// Per-stage profile of one pipeline execution, in registration order.
struct PipelineProfile {
  std::vector<StageStats> stages;

  bool empty() const { return stages.empty(); }
  /// One StageStats::ToString() line per stage.
  std::string ToString() const;
};

// ---------------------------------------------------------------------------
// Resolved specs & query building (shared by every composition)

/// The join spec with column references resolved to indices.
struct ResolvedSpec {
  const ForeignJoinSpec* spec = nullptr;
  std::vector<size_t> join_columns;  ///< Left-schema column, per predicate.
  Schema output_schema;              ///< left ⨯ text.
};

/// Resolves every join predicate's column against the left schema and
/// validates the referenced fields against the text declaration.
Result<ResolvedSpec> ResolveSpec(const ForeignJoinSpec& spec);

/// Builds the instantiated Boolean search: the conjunction of all text
/// selections plus, for each predicate in `mask`, its field-restricted term
/// taken from `terms` (parallel to the set bits of `mask`, ascending).
/// With an empty mask it is the selections-only search RTP issues.
TextQueryPtr BuildSearch(const ResolvedSpec& rspec,
                         const std::vector<std::string>& terms,
                         PredicateMask mask);

/// One OR disjunct for the semi-join method: AND of the join terms of one
/// distinct combination (field-restricted).
TextQueryPtr BuildDisjunct(const ResolvedSpec& rspec,
                           const std::vector<std::string>& terms,
                           PredicateMask mask);

/// Relational-side string matching for the RTP family (DESIGN.md §14):
/// outer tuples' join terms for the predicates in `mask`, read through the
/// tuples' row ids as one code per tuple and predicate (CodedColumn, whose
/// codes carry their prepared terms in common/text_match.h's form), matched
/// against each fetched document's join fields, prepared once per
/// document. Immutable after construction, so match units on pool threads
/// share one instance. It points at the predicates' field names and at the
/// tables the tuples borrow, so the spec behind `rspec` and those tables
/// must outlive it; the tuples need not.
class JoinTermMatcher {
 public:
  /// Reads every tuple: the i-th prepared row is tuple i.
  JoinTermMatcher(const ResolvedSpec& rspec, const RowIdSet& tuples,
                  PredicateMask mask);

  /// Reads only the tuples that will be matched: the i-th prepared row is
  /// tuple tuple_ids[i].
  JoinTermMatcher(const ResolvedSpec& rspec, const RowIdSet& tuples,
                  const std::vector<size_t>& tuple_ids, PredicateMask mask);

  /// `doc`'s fields for the mask's predicates, in prepared form — the
  /// argument of Matches().
  std::vector<std::string> PrepareDoc(const Document& doc) const;

  /// True if the prepared document satisfies every predicate in the mask
  /// for the i-th prepared row. A NULL or non-string join value never
  /// matches.
  bool Matches(size_t i, const std::vector<std::string>& doc_fields) const;

  /// The number of prepared rows.
  size_t size() const { return num_rows_; }

 private:
  JoinTermMatcher(const ResolvedSpec& rspec, const RowIdSet& tuples,
                  PredicateMask mask, size_t num_rows);
  void AddTuple(const RowIdSet& tuples, size_t tuple);

  size_t num_rows_;
  std::vector<const std::string*> fields_;  ///< Text field per predicate.
  std::vector<CodedColumn> columns_;        ///< Left column per predicate.
  /// The code of (prepared row i, k-th predicate) at index
  /// i * columns_.size() + k.
  std::vector<uint32_t> codes_;
};

/// Tuple indices grouped by their join-term combination over `mask` (the
/// shape the DistinctKeys stage hands to slot-addressed downstream
/// stages). Tuples with NULL/non-string join values are dropped (they
/// cannot match); each group lists its tuples in ascending order. Each
/// masked column is read as codes (CodedColumn), one pass over its part's
/// ids, so no string is hashed or compared until the groups are sorted;
/// runs of tuples with equal keys are counted and scattered into presized
/// group lists as one.
struct KeyGroups {
  std::vector<std::vector<std::string>> terms;  ///< Lexicographic order.
  std::vector<std::vector<size_t>> rows;        ///< Parallel to `terms`.
  size_t size() const { return terms.size(); }
};
KeyGroups GroupRowsByTerms(const ResolvedSpec& rspec, const RowIdSet& tuples,
                           PredicateMask mask);

/// Validates a probe mask: non-zero and within the predicate count.
Status ValidateProbeMask(const ForeignJoinSpec& spec, PredicateMask mask);

/// True for the placeholder a best-effort fetch skip leaves behind (slot
/// alignment is preserved for callers that index fetched documents by
/// position; real documents always carry a docid).
inline bool IsPlaceholderDoc(const Document& doc) { return doc.docid.empty(); }

// ---------------------------------------------------------------------------
// Scheduler

struct StageCounters;  // Internal per-stage accounting (pipeline.cc).

/// The one scheduler behind every join method. Owns the parallelism (an
/// optional ThreadPool), the FaultPolicy, per-stage accounting, and
/// deterministic failure selection.
///
/// Work units are spawned under a (stage, ordinal) identity and may spawn
/// further units — that is what removes the per-phase barriers: a search
/// unit that answers spawns its fetch units immediately, and those run
/// while other search units are still waiting on the source. Wait() drains
/// everything (the caller participates, so progress is guaranteed even
/// with a saturated or absent pool) and returns the deterministic failure:
/// the non-OK status of the minimum (stage, ordinal) pair.
///
/// All units run even when one fails (matching the historical contract
/// that the meter reflects every issued operation); a failed unit's own
/// downstream units are simply never spawned. Units must therefore make
/// the set of operations they issue a pure function of per-operation
/// outcomes — never of scheduling order — to keep the byte-identity
/// contract.
///
/// A scheduler may be shared across several compositions (the plan
/// executor runs a whole PrL plan — probe reducers plus the foreign join —
/// through one scheduler, composing them into a single DAG); AddStage
/// keeps per-composition stages separate.
///
/// The scheduler is the one carrier of the query's execution context: it
/// adopts the constructing thread's ambient CurrentCancelToken() (the
/// query token; the null token when none is in scope). That token is its
/// only cancel route and its only deadline:
///  - once the token fires with a kClient / kShutdown reason, every
///    subsequent Search/Fetch returns kCancelled without touching the
///    source, and pending units drain WITHOUT running: their captures are
///    released and each is recorded in the policy's degradation sink as a
///    cancelled operation. kCancelled is permanent (never absorbed by a
///    best-effort policy), so a cancelled query errors out rather than
///    publishing a torn row set;
///  - once the token's deadline passes, every subsequent Search/Fetch is
///    SHED: it returns DeadlineExceeded without touching the source and is
///    recorded in the sink as a shed operation (which always marks the
///    result incomplete; under best-effort the query still finishes with
///    the rows it has, under fail-fast it aborts).
/// The token is also installed as the ambient token on whichever thread
/// runs a unit, so source-side decorators (retry backoff, limiter waits,
/// chaos latency) observe it too.
class StageScheduler {
 public:
  /// Opaque stage handle; stable for the scheduler's lifetime.
  using StageId = StageCounters*;

  /// `pool` may be null (serial: units run on the Wait()ing thread in
  /// spawn order). `source` and `policy` must outlive the scheduler.
  /// Adopts CurrentCancelToken() as the query token (see above).
  StageScheduler(ThreadPool* pool, TextSource& source,
                 const FaultPolicy& policy);

  /// Drains any still-pending units (without reporting their failures).
  ~StageScheduler();

  StageScheduler(const StageScheduler&) = delete;
  StageScheduler& operator=(const StageScheduler&) = delete;

  /// Registers a stage. Call from the driving thread (not from units).
  StageId AddStage(StageDesc desc);

  /// Cooperative-cancellation checkpoint for the driver-side assembly
  /// stages (BatchAssembler runs it at TupleBatch boundaries): returns the
  /// token's kCancelled once a client abort / shutdown has fired, OK
  /// otherwise — including past-deadline, because shedding governs SOURCE
  /// operations and a shed query still assembles the rows it already paid
  /// for. No meter or operation counter moves here: assembly is not a
  /// source operation, so checkpoints keep rows AND meters byte-identical
  /// for every query that completes.
  Status BatchCheckpoint();

  /// Enqueues one unit of `stage`. `ordinal` orders the unit within its
  /// stage for deterministic failure selection; units of one stage should
  /// use distinct ordinals. Safe to call from inside a running unit.
  /// The unit's returned status should already have passed through
  /// HandleSourceFailure where the policy may absorb it.
  void Spawn(StageId stage, uint64_t ordinal, std::function<Status()> fn);

  /// Runs/awaits every pending unit (including ones spawned meanwhile) and
  /// returns the deterministic first failure, or OK. May be called again
  /// after more Spawns; a recorded failure is sticky.
  Status Wait();

  /// Issues a search / fetch against the source, timing the round-trip and
  /// charging the stage's profile (successful operations only; the source
  /// meter itself is charged by the source as always).
  Result<std::vector<std::string>> Search(StageId stage,
                                          const TextQuery& query);
  Result<Document> Fetch(StageId stage, const std::string& docid);

  /// Charges `docs_scanned` relational string-matching operations (the c_a
  /// component) to the source's meter when the source is metered (decorator
  /// chains are unwrapped to find the metered source), and to `stage`'s
  /// profile. The matching itself happens on the database side, but the
  /// experiment harness reads one combined meter, as the paper reports one
  /// combined time.
  void ChargeRelationalMatches(StageId stage, uint64_t docs_scanned);

  /// The session probe store (text_cache.h: probe outcomes across
  /// queries, paper Section 3.3), reached through the caching decorator
  /// when one fronts the source chain (the FederationService layering).
  /// KnownProbe returns the outcome an earlier query recorded for `probe`;
  /// RecordProbe stores the outcome this query observed. Without a store,
  /// every lookup misses and every record is dropped.
  std::optional<bool> KnownProbe(const TextQuery& probe) const;
  void RecordProbe(const TextQuery& probe, bool matched) const;

  /// Charges one cross-query cache hit for an upstream operation a method
  /// skipped OUTSIDE Search/Fetch (the probing methods skipping a search
  /// or probe because KnownProbe knew the probe's outcome): to `stage`'s
  /// profile and to the query's probe-hit account. Search/Fetch account
  /// their own hits. Call only after KnownProbe returned an outcome.
  void NoteCacheHit(StageId stage);

  /// Decides the fate of a failed source operation under the policy:
  /// returns OK (failure absorbed, recorded in the degradation sink) when
  /// the policy may continue without this operation, the failure status
  /// otherwise. A transient failure is absorbed under best-effort always,
  /// and under retry-then-fail only when `affects_completeness` is false
  /// (advisory operations — reducer probes, cache probes — can be dropped
  /// without changing the answer). Permanent errors always propagate: they
  /// are query bugs, not faults.
  Status HandleSourceFailure(Status status, bool affects_completeness) const;

  TextSource& source() const { return source_; }
  const FaultPolicy& policy() const { return policy_; }
  ThreadPool* pool() const { return pool_; }

  /// Snapshot of the listed stages, in the given order. Call after Wait().
  PipelineProfile Profile(const std::vector<StageId>& ids) const;

 private:
  struct State;
  struct Task;

  /// Pops and runs one queued unit; false if the queue was empty.
  static bool DrainOne(State& state);
  static void ExecuteTask(State& state, Task task);

  /// OK, or the cancel/shed status once the query token has fired or its
  /// deadline has passed.
  Status CheckToken();

  /// The one accounting path of Search and Fetch, with and without a
  /// cache: `call(&outcome)` runs the operation and reports how the cache
  /// served it (it stays kMiss when no cache is in front).
  template <typename T, typename Call>
  Result<T> Perform(StageId stage, const Call& call);

  /// Accounts an operation whose source call came back kCancelled: the
  /// token fired MID-call (after the dispatch checkpoint passed), so the
  /// dropped work must still reach the degradation sink for the report to
  /// stay honest.
  void NoteCancelledResult(const Status& status);

  ThreadPool* pool_;
  TextSource& source_;
  CachingTextSource* caching_;  ///< Front of the chain when caching is on.
  FaultPolicy policy_;
  std::shared_ptr<State> state_;  ///< Shared with enqueued pool jobs.
};

/// RAII timer for driver-side serial stages (DistinctKeys, QueryBuild,
/// Assemble) that run inline rather than as spawned units: charges the
/// scope's elapsed time (minus any inner source operations) and `units`
/// units to the stage.
class ScopedStageTimer {
 public:
  explicit ScopedStageTimer(StageScheduler::StageId stage,
                            uint64_t units = 1);
  ~ScopedStageTimer();
  ScopedStageTimer(const ScopedStageTimer&) = delete;
  ScopedStageTimer& operator=(const ScopedStageTimer&) = delete;

 private:
  StageScheduler::StageId stage_;
  uint64_t units_;
  std::chrono::steady_clock::time_point start_;
  uint64_t op_ns_at_start_;
};

/// Slot-addressed asynchronous document retrieval, and the one place a
/// document becomes an output row (AppendRow). Each docid requested gets
/// a stable slot; a long-form fetcher spawns one fetch unit per slot,
/// while a docid-only one (the query reads no document field) issues no
/// Fetch and its slot holds the docid alone. After the scheduler drains,
/// doc() returns the slot's document, or the empty placeholder (see
/// IsPlaceholderDoc) when a best-effort policy absorbed the fetch failure.
///
/// Deduplication is the method's choice between the two entries, as it
/// defines the method's cost: Fetch gives every docid a fresh slot, so TS
/// and P+TS retrieve each search's documents (the paper's c_l·V); FetchOnce
/// fetches a docid only the first time the fetcher sees it and hands every
/// later request that slot (the methods that fetch a set of docids).
/// Both entries are safe to call from concurrent units.
///
/// MatchEach adds the fetch-then-match unit of the RTP family: each
/// successful fetch chains a unit that string-matches the document against
/// every outer tuple, overlapped with everything else.
class DocFetcher {
 public:
  DocFetcher(StageScheduler& sched, StageScheduler::StageId stage,
             const TextRelationDecl& text, bool long_form);

  /// From now on, each successful fetch spawns a unit of `stage` that
  /// charges one relational match (c_a) and records, in ascending order,
  /// the tuples of `tuples` the document satisfies on every join predicate
  /// of `rspec` (matched()). The tuples' codes are read here, as
  /// Match-stage work that is not a unit. Call before the first request;
  /// `rspec` must outlive the fetcher.
  void MatchEach(StageScheduler::StageId stage, const ResolvedSpec& rspec,
                 const RowIdSet& tuples);

  /// Requests `docids` and returns their slots, in order.
  std::vector<size_t> Fetch(const std::vector<std::string>& docids);
  std::vector<size_t> FetchOnce(const std::vector<std::string>& docids);

  // Valid only after the scheduler drained.
  const Document& doc(size_t slot) const;
  /// The tuples the slot's match unit matched (none when it never ran).
  const std::vector<size_t>& matched(size_t slot) const;
  size_t size() const;

  /// Stages the slot's text-side row [docid, field1, field2, ...] into a
  /// fresh slot of `batch` (width text.fields.size() + 1): multi-valued
  /// fields flattened, or NULL for a docid-only fetcher. Stages nothing
  /// and returns false for a placeholder.
  bool AppendRow(size_t slot, TupleBatch& batch) const;

 private:
  struct Slot {
    Document doc;
    std::vector<size_t> matched;
  };

  /// Reserves a slot for `docid` and spawns its fetch. Called under mu_.
  size_t Request(const std::string& docid);
  Status Match(Slot& slot) const;

  StageScheduler& sched_;
  StageScheduler::StageId stage_;
  const TextRelationDecl& text_;
  bool long_form_;
  StageScheduler::StageId match_stage_ = nullptr;
  std::optional<JoinTermMatcher> matcher_;
  mutable std::mutex mu_;
  std::deque<Slot> slots_;  ///< deque: growth keeps element addresses.
  std::unordered_map<std::string, size_t> slot_of_;  ///< FetchOnce's.
};

// ---------------------------------------------------------------------------
// Method compositions

/// Everything a method composition needs: the resolved spec, the outer
/// tuples, and the scheduler it registers its stages on and runs on.
struct MethodContext {
  const ResolvedSpec& rspec;
  const RowIdSet& left;  ///< Schema: rspec.spec->left_schema.
  PredicateMask probe_mask;
  StageScheduler& sched;
  /// The composition's stages, in registration order (the profile's).
  std::vector<StageScheduler::StageId> stage_ids;

  /// Registers one stage of the composition on `sched` and records its id
  /// for the profile. A composition registers every stage before it
  /// spawns its first unit; registration order is the failure-selection
  /// rank and the profile order.
  StageScheduler::StageId AddStage(StageKind kind, std::string detail);
};

/// The grouped-search front (TS, P+TS, P+RTP and the probe reducer): the
/// outer tuples grouped by their join terms over `mask`, timed as one unit
/// of `keys`, and one search per group instantiated over the same mask
/// (BuildSearch: the per-combination search or a probe), one unit of
/// `build` each.
struct GroupedSearches {
  KeyGroups groups;
  std::vector<TextQueryPtr> searches;  ///< Parallel to groups.terms.
  size_t size() const { return searches.size(); }
};
GroupedSearches GroupAndBuildSearches(const MethodContext& ctx,
                                      StageScheduler::StageId keys,
                                      StageScheduler::StageId build,
                                      PredicateMask mask);

/// The OR-batch front (SJ and SJ+RTP, paper Section 3.2): the outer tuples
/// grouped by every join term (one unit of `keys`), the combinations
/// carved into OR-batches under the source's term limit M (one unit of
/// `build`: each batch spends the selection terms once plus k terms per
/// disjunct, so |Q|/M searches), and one search unit per batch spawned on
/// `search`. A batch whose search fails transiently under a recovering
/// policy re-splits itself down to single disjuncts. Each answer's docids
/// are requested through `fetcher`'s FetchOnce the moment it arrives, so
/// fetches overlap the remaining searches, and batch b's slots land in
/// answers[b]. Fails, spawning nothing, when one disjunct alone exceeds M.
Status SpawnOrBatches(const MethodContext& ctx, StageScheduler::StageId keys,
                      StageScheduler::StageId build,
                      StageScheduler::StageId search, DocFetcher& fetcher,
                      std::vector<std::vector<size_t>>& answers);

/// The slots of `answers` (one fetcher's, below `num_slots`), each once,
/// in first-seen order: the replay order of the OR-batch methods, batch
/// major, so it does not depend on the order the batches completed in.
std::vector<size_t> FirstSeenSlots(
    const std::vector<std::vector<size_t>>& answers, size_t num_slots);

/// Batched deterministic result assembly (DESIGN.md §14), timed as one
/// unit of a composition's Assemble stage for the assembler's lifetime.
/// Every method's join output is appended through it, and it is the one
/// place a foreign join gathers an outer tuple's values: only for the
/// output rows, one allocation per row. The scheduler's cooperative
/// cancellation checkpoint runs once per kBatchRows appends — a client
/// abort mid-assembly lands within one batch instead of after a full
/// cross product. Deadline shedding is deliberately NOT checked here: a
/// shed query still assembles the rows it has. Append order is the
/// caller's deterministic replay order, so rows stay byte-identical.
class BatchAssembler {
 public:
  static constexpr size_t kBatchRows = TupleBatch::kDefaultCapacity;

  BatchAssembler(const MethodContext& ctx, StageScheduler::StageId stage)
      : timer_(stage), sched_(ctx.sched), left_(ctx.left) {
    result_.schema = ctx.rspec.output_schema;
  }

  /// Appends outer tuple `tuple` ⨯ `right` as one output row.
  Status AppendConcat(size_t tuple, RowView right) {
    Row& row = result_.rows.emplace_back();
    row.reserve(left_.schema().num_columns() + right.size());
    left_.GatherInto(tuple, row);
    row.insert(row.end(), right.begin(), right.end());
    return Tick();
  }

  /// Appends left ⨯ right as one output row (SJ's all-NULL left row).
  Status AppendConcat(RowView left, RowView right) {
    ConcatInto(left, right, result_.rows.emplace_back());
    return Tick();
  }

  /// The assembled result; the assembler is spent.
  ForeignJoinResult Finish() { return std::move(result_); }

 private:
  Status Tick() {
    if (++appended_ % kBatchRows != 0) return Status::OK();
    return sched_.BatchCheckpoint();
  }

  ScopedStageTimer timer_;
  StageScheduler& sched_;
  const RowIdSet& left_;
  ForeignJoinResult result_;
  uint64_t appended_ = 0;
};

/// The group-order assembly (TS, P+TS): group by group, each tuple of the
/// group joined with each document of its search, the slots
/// slots_per_group[g] of `fetcher` (placeholders skipped). A group's
/// document rows are staged once, in one batch.
Result<ForeignJoinResult> AssembleGroupOrder(
    const MethodContext& ctx, StageScheduler::StageId stage,
    const KeyGroups& groups, const DocFetcher& fetcher,
    const std::vector<std::vector<size_t>>& slots_per_group);

/// The per-document assembly of the fetch-then-match methods (RTP,
/// SJ+RTP): for each slot of `order`, the document's row after each tuple
/// of ctx.left its match unit matched (DocFetcher::MatchEach). A matched
/// document's row is staged once.
Result<ForeignJoinResult> AssembleMatchedDocs(const MethodContext& ctx,
                                              StageScheduler::StageId stage,
                                              const DocFetcher& fetcher,
                                              const std::vector<size_t>& order);

/// Executes `method`'s composition on `sched`, which may already carry
/// other compositions (the plan executor's shared DAG), over the outer
/// tuples `left`, whose schema is spec.left_schema. Checks the method's
/// applicability (the paper's preconditions) first, so an inapplicable
/// method fails before any stage registers or any source traffic.
/// `profile`, when non-null, receives the composition's per-stage account.
Result<ForeignJoinResult> RunForeignJoin(StageScheduler& sched,
                                         JoinMethodKind method,
                                         const ForeignJoinSpec& spec,
                                         const RowIdSet& left,
                                         PredicateMask probe_mask,
                                         PipelineProfile* profile);

/// ProbeSemiJoinReduce (join_methods.h) on `sched`, over the outer tuples
/// `left` (schema spec.left_schema): a three-stage composition that
/// returns the surviving tuples, in input order. `profile`, when non-null,
/// receives its per-stage account on success.
Result<RowIdSet> RunProbeReducer(StageScheduler& sched,
                                 const ForeignJoinSpec& spec,
                                 const RowIdSet& left,
                                 PredicateMask probe_mask,
                                 PipelineProfile* profile);

// The six compositions, dispatched by RunForeignJoin (defined in the
// per-method files). Internal to the execution layer.
Result<ForeignJoinResult> RunTS(MethodContext& ctx);     // tuple_substitution.cc
Result<ForeignJoinResult> RunRTP(MethodContext& ctx);    // rtp.cc
Result<ForeignJoinResult> RunSJ(MethodContext& ctx);     // semi_join.cc
Result<ForeignJoinResult> RunSJRTP(MethodContext& ctx);  // semi_join.cc
Result<ForeignJoinResult> RunPTS(MethodContext& ctx);    // probing.cc
Result<ForeignJoinResult> RunPRTP(MethodContext& ctx);   // probing.cc

}  // namespace textjoin::pipeline

#endif  // TEXTJOIN_CORE_PIPELINE_H_
