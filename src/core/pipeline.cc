#include "core/pipeline.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <functional>
#include <limits>
#include <numeric>
#include <optional>
#include <string_view>
#include <type_traits>
#include <unordered_map>
#include <utility>

#include "common/text_match.h"
#include "connector/remote_text_source.h"

namespace textjoin::pipeline {

namespace {

/// Source-operation time accrued on this thread inside the innermost
/// currently-running unit or ScopedStageTimer scope. OpTimer adds to it;
/// unit / scope self-time subtracts it, so per-stage wall-clock figures are
/// non-overlapping and sum to total busy time.
thread_local uint64_t tls_op_ns = 0;

uint64_t NsSince(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

// ---------------------------------------------------------------------------
// Stage taxonomy

const char* StageKindName(StageKind kind) {
  switch (kind) {
    case StageKind::kDistinctKeys:
      return "DistinctKeys";
    case StageKind::kProbeFilter:
      return "ProbeFilter";
    case StageKind::kQueryBuild:
      return "QueryBuild";
    case StageKind::kSearchDispatch:
      return "SearchDispatch";
    case StageKind::kFetch:
      return "Fetch";
    case StageKind::kMatch:
      return "Match";
    case StageKind::kAssemble:
      return "Assemble";
  }
  return "?";
}

std::string StageDesc::ToString() const {
  std::string out = StageKindName(kind);
  if (!detail.empty()) {
    out += '(';
    out += detail;
    out += ')';
  }
  return out;
}

std::string StageStats::ToString(bool stable) const {
  char buf[64];
  if (stable) {
    std::snprintf(buf, sizeof(buf), ": units=%llu",
                  static_cast<unsigned long long>(units));
  } else {
    std::snprintf(buf, sizeof(buf), ": units=%llu wall=%.2fms",
                  static_cast<unsigned long long>(units), wall_seconds * 1e3);
  }
  std::string out = desc.ToString() + buf;
  const auto append = [&out](const char* name, uint64_t value) {
    if (value == 0) return;
    out += ' ';
    out += name;
    out += '=';
    out += std::to_string(value);
  };
  append("inv", invocations);
  append("short", short_docs);
  append("long", long_docs);
  append("rmatch", relational_matches);
  append("chit", cache_hits);
  append("cmiss", cache_misses);
  append("cwait", cache_coalesced);
  return out;
}

std::string PipelineProfile::ToString() const {
  std::string out;
  for (const StageStats& stage : stages) {
    if (!out.empty()) out += '\n';
    out += stage.ToString();
  }
  return out;
}

// ---------------------------------------------------------------------------
// Resolved specs & query building

Result<ResolvedSpec> ResolveSpec(const ForeignJoinSpec& spec) {
  ResolvedSpec rspec;
  rspec.spec = &spec;
  for (const TextJoinPredicate& pred : spec.joins) {
    TEXTJOIN_ASSIGN_OR_RETURN(size_t idx,
                              spec.left_schema.Resolve(pred.column_ref));
    rspec.join_columns.push_back(idx);
    if (!spec.text.HasField(pred.field)) {
      return Status::NotFound("text field '" + pred.field +
                              "' not declared on " + spec.text.alias);
    }
  }
  for (const TextSelection& sel : spec.selections) {
    if (!spec.text.HasField(sel.field)) {
      return Status::NotFound("text field '" + sel.field +
                              "' not declared on " + spec.text.alias);
    }
  }
  rspec.output_schema = spec.left_schema.Concat(spec.text.ToSchema());
  return rspec;
}

namespace {

/// The outer column of every predicate in `mask`, located in `tuples`, in
/// ascending predicate order.
std::vector<RowIdSet::ColumnRef> MaskedJoinColumns(const ResolvedSpec& rspec,
                                                   const RowIdSet& tuples,
                                                   PredicateMask mask) {
  std::vector<RowIdSet::ColumnRef> columns;
  for (size_t i = 0; i < rspec.join_columns.size(); ++i) {
    if ((mask & (1u << i)) != 0) {
      columns.push_back(tuples.Locate(rspec.join_columns[i]));
    }
  }
  return columns;
}

// Appends term nodes for the predicates in `mask` to `children`.
void AppendJoinTermNodes(const ResolvedSpec& rspec,
                         const std::vector<std::string>& terms,
                         PredicateMask mask,
                         std::vector<TextQueryPtr>& children) {
  size_t term_index = 0;
  for (size_t i = 0; i < rspec.spec->joins.size(); ++i) {
    if ((mask & (1u << i)) == 0) continue;
    children.push_back(
        TextQuery::Term(rspec.spec->joins[i].field, terms.at(term_index)));
    ++term_index;
  }
}

}  // namespace

TextQueryPtr BuildSearch(const ResolvedSpec& rspec,
                         const std::vector<std::string>& terms,
                         PredicateMask mask) {
  std::vector<TextQueryPtr> children;
  for (const TextSelection& sel : rspec.spec->selections) {
    children.push_back(TextQuery::Term(sel.field, sel.term));
  }
  AppendJoinTermNodes(rspec, terms, mask, children);
  TEXTJOIN_CHECK(!children.empty(), "search with no predicates");
  return TextQuery::And(std::move(children));
}

TextQueryPtr BuildDisjunct(const ResolvedSpec& rspec,
                           const std::vector<std::string>& terms,
                           PredicateMask mask) {
  std::vector<TextQueryPtr> children;
  AppendJoinTermNodes(rspec, terms, mask, children);
  TEXTJOIN_CHECK(!children.empty(), "disjunct with no join terms");
  return TextQuery::And(std::move(children));
}

JoinTermMatcher::JoinTermMatcher(const ResolvedSpec& rspec,
                                 PredicateMask mask,
                                 std::vector<RowIdSet::ColumnRef> columns,
                                 size_t num_tuples)
    : num_rows_(num_tuples), columns_(std::move(columns)) {
  for (size_t i = 0; i < rspec.spec->joins.size(); ++i) {
    if ((mask & (1u << i)) != 0) fields_.push_back(&rspec.spec->joins[i].field);
  }
  term_ends_.reserve(num_tuples * columns_.size());
}

JoinTermMatcher::JoinTermMatcher(const ResolvedSpec& rspec,
                                 const RowIdSet& tuples, PredicateMask mask)
    : JoinTermMatcher(rspec, mask, MaskedJoinColumns(rspec, tuples, mask),
                      tuples.size()) {
  for (size_t t = 0; t < tuples.size(); ++t) AddTuple(tuples, t);
}

JoinTermMatcher::JoinTermMatcher(const ResolvedSpec& rspec,
                                 const RowIdSet& tuples,
                                 const std::vector<size_t>& tuple_ids,
                                 PredicateMask mask)
    : JoinTermMatcher(rspec, mask, MaskedJoinColumns(rspec, tuples, mask),
                      tuple_ids.size()) {
  for (size_t t : tuple_ids) AddTuple(tuples, t);
}

void JoinTermMatcher::AddTuple(const RowIdSet& tuples, size_t tuple) {
  for (const RowIdSet::ColumnRef& column : columns_) {
    const Value& v = tuples.at(tuple, column);
    // A non-string value prepares to the empty, never-matching term.
    if (v.type() == ValueType::kString) {
      AppendPreparedTerm(v.AsString(), terms_);
    }
    term_ends_.push_back(terms_.size());
  }
}

std::vector<std::string> JoinTermMatcher::PrepareDoc(
    const Document& doc) const {
  std::vector<std::string> prepared;
  prepared.reserve(fields_.size());
  for (const std::string* field : fields_) {
    prepared.push_back(PrepareFieldValues(doc.FieldValues(*field)));
  }
  return prepared;
}

bool JoinTermMatcher::Matches(
    size_t i, const std::vector<std::string>& doc_fields) const {
  const std::string_view terms = terms_;
  size_t index = i * fields_.size();
  for (const std::string& field : doc_fields) {
    const size_t begin = index == 0 ? 0 : term_ends_[index - 1];
    const size_t end = term_ends_[index++];
    if (!PreparedTermMatches(terms.substr(begin, end - begin), field)) {
      return false;
    }
  }
  return true;
}

KeyGroups GroupRowsByTerms(const ResolvedSpec& rspec, const RowIdSet& tuples,
                           PredicateMask mask) {
  const std::vector<RowIdSet::ColumnRef> columns =
      MaskedJoinColumns(rspec, tuples, mask);
  const size_t n = tuples.size();
  const size_t width = tuples.num_parts();
  constexpr uint32_t kNoKey = std::numeric_limits<uint32_t>::max();
  constexpr uint32_t kUnseen = kNoKey - 1;
  // Each tuple's key code, where equal codes mean equal masked terms. Every
  // tuple starts with the one code of the empty key, and each part holding
  // masked columns folds its part-local key in; kNoKey drops the tuple.
  std::vector<uint32_t> code(n, 0);
  size_t num_codes = 1;
  for (size_t part = 0; part < width; ++part) {
    std::vector<size_t> cols;  // The part's masked columns.
    for (const RowIdSet::ColumnRef& c : columns) {
      if (c.part == part) cols.push_back(c.column);
    }
    if (cols.empty()) continue;
    const std::vector<Row>& rows = tuples.rows(part);
    const auto str = [&](size_t r, size_t c) -> const std::string& {
      return rows[r][c].AsString();
    };
    // Part-local keys: base rows with equal masked strings share one. A
    // base row's strings are hashed once, when its first tuple comes by.
    const auto key_hash = [&](size_t r) {
      size_t h = 0;
      for (size_t c : cols) {
        h = h * 1099511628211u ^ std::hash<std::string>{}(str(r, c));
      }
      return h;
    };
    const auto key_eq = [&](size_t a, size_t b) {
      return std::all_of(cols.begin(), cols.end(),
                         [&](size_t c) { return str(a, c) == str(b, c); });
    };
    std::unordered_map<size_t, uint32_t, decltype(key_hash), decltype(key_eq)>
        local_of(std::min(rows.size(), n), key_hash, key_eq);
    std::vector<uint32_t> key_of(rows.size(), kUnseen);
    const auto local_key = [&](size_t r) {
      uint32_t& key = key_of[r];
      if (key != kUnseen) return key;
      const bool all_strings =
          std::all_of(cols.begin(), cols.end(), [&](size_t c) {
            return rows[r][c].type() == ValueType::kString;
          });
      const auto next = static_cast<uint32_t>(local_of.size());
      key = all_strings ? local_of.try_emplace(r, next).first->second : kNoKey;
      return key;
    };
    // One pass over the part's ids. While every live code is the same, a
    // local key is the new code; otherwise (code, local key) pairs are
    // numbered as they first occur.
    const size_t* id = tuples.ids().data() + part;
    if (num_codes == 1) {
      for (size_t t = 0; t < n; ++t, id += width) {
        if (code[t] != kNoKey) code[t] = local_key(*id);
      }
      num_codes = local_of.size();
      continue;
    }
    std::unordered_map<uint64_t, uint32_t> combined;
    for (size_t t = 0; t < n; ++t, id += width) {
      if (code[t] == kNoKey) continue;
      const uint32_t local = local_key(*id);
      const auto next = static_cast<uint32_t>(combined.size());
      code[t] = local == kNoKey
                    ? kNoKey
                    : combined.try_emplace((uint64_t{code[t]} << 32) | local,
                                           next)
                          .first->second;
    }
    num_codes = combined.size();
  }

  // Calls `run(c, begin, end)` for each maximal run [begin, end) of tuples
  // sharing the live code c, in tuple order.
  const auto for_each_run = [&](auto run) {
    for (size_t t = 0; t < n;) {
      const uint32_t c = code[t];
      size_t end = t + 1;
      while (end < n && code[end] == c) ++end;
      if (c != kNoKey) run(c, t, end);
      t = end;
    }
  };
  // Each code's tuple count and first tuple, whose terms are read in place.
  std::vector<size_t> count(num_codes, 0);
  std::vector<size_t> first(num_codes, 0);
  for_each_run([&](uint32_t c, size_t begin, size_t end) {
    if (count[c] == 0) first[c] = begin;
    count[c] += end - begin;
  });
  // Only the live codes are sorted, lexicographically by their term tuples
  // (the order std::map<std::vector<std::string>, ...> iterates).
  const size_t k = columns.size();
  std::vector<const std::string*> terms(num_codes * k);
  std::vector<uint32_t> order;
  order.reserve(num_codes);
  for (uint32_t c = 0; c < num_codes; ++c) {
    if (count[c] == 0) continue;
    order.push_back(c);
    for (size_t i = 0; i < k; ++i) {
      terms[c * k + i] = &tuples.at(first[c], columns[i]).AsString();
    }
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (size_t i = 0; i < k; ++i) {
      const int cmp = terms[a * k + i]->compare(*terms[b * k + i]);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  });
  // Each group's list is presized to its count, and the tuples are
  // scattered into it a run at a time, so each list comes out ascending.
  KeyGroups out;
  out.terms.resize(order.size());
  out.rows.resize(order.size());
  std::vector<size_t*> cursor(num_codes, nullptr);
  for (size_t g = 0; g < order.size(); ++g) {
    const uint32_t c = order[g];
    out.terms[g].reserve(k);
    for (size_t i = 0; i < k; ++i) out.terms[g].push_back(*terms[c * k + i]);
    out.rows[g].resize(count[c]);
    cursor[c] = out.rows[g].data();
  }
  for_each_run([&](uint32_t c, size_t begin, size_t end) {
    size_t*& dst = cursor[c];
    for (size_t t = begin; t < end; ++t) *dst++ = t;
  });
  return out;
}

Status ValidateProbeMask(const ForeignJoinSpec& spec, PredicateMask mask) {
  if (mask == 0) {
    return Status::InvalidArgument("probe mask must select at least one "
                                   "join predicate");
  }
  const PredicateMask all = FullMask(spec.joins.size());
  if ((mask & ~all) != 0) {
    return Status::OutOfRange("probe mask " + MaskToString(mask) +
                              " selects predicates beyond the " +
                              std::to_string(spec.joins.size()) +
                              " in the spec");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Scheduler

/// Per-stage accounting. Owned by the scheduler State (so pool jobs that
/// outlive the scheduler object can still charge it); addressed by the
/// opaque StageId pointer. `rank` is the registration order, the major key
/// of deterministic failure selection.
struct StageCounters {
  StageDesc desc;
  size_t rank = 0;
  std::atomic<uint64_t> units{0};
  std::atomic<uint64_t> wall_ns{0};
  std::atomic<uint64_t> invocations{0};
  std::atomic<uint64_t> short_docs{0};
  std::atomic<uint64_t> long_docs{0};
  std::atomic<uint64_t> relational_matches{0};
  std::atomic<uint64_t> cache_hits{0};
  std::atomic<uint64_t> cache_misses{0};
  std::atomic<uint64_t> cache_coalesced{0};
};

namespace {

/// RAII timer around one source round-trip that Search/Fetch issue on
/// behalf of `stage`: the elapsed time is charged to the stage and
/// excluded from the enclosing unit's own time.
class OpTimer {
 public:
  explicit OpTimer(StageCounters* stage)
      : stage_(stage), start_(std::chrono::steady_clock::now()) {}
  ~OpTimer() {
    const uint64_t elapsed = NsSince(start_);
    stage_->wall_ns.fetch_add(elapsed, std::memory_order_relaxed);
    tls_op_ns += elapsed;
  }
  OpTimer(const OpTimer&) = delete;
  OpTimer& operator=(const OpTimer&) = delete;

 private:
  StageCounters* stage_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace

struct StageScheduler::Task {
  StageCounters* stage = nullptr;
  uint64_t ordinal = 0;
  std::function<Status()> fn;
};

/// Shared with every drain job handed to the pool: a job enqueued behind a
/// long run may execute after the scheduler object is gone, so everything
/// it touches lives here behind a shared_ptr (the ParallelFor LoopState
/// pattern).
struct StageScheduler::State {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Task> queue;
  size_t pending = 0;  ///< Queued + currently running units.
  std::deque<std::unique_ptr<StageCounters>> stages;

  // Sticky deterministic failure: minimum (stage rank, ordinal).
  bool failed = false;
  size_t fail_rank = 0;
  uint64_t fail_ordinal = 0;
  Status failure;

  // Cancellation: the query token (propagated to unit threads via
  // ExecuteTask's CancelScope) and the policy used to account drained
  // units. Lives here because pool drain jobs address tasks through State;
  // any job that actually pops a task completes before the scheduler's
  // destructor returns, so the policy pointer stays valid whenever it is
  // dereferenced. Written once, by the constructor, before any unit can
  // spawn; ExecuteTask reads it lock-free — the pool's task queue gives
  // worker threads the necessary happens-before edge.
  CancelToken cancel;
  const FaultPolicy* policy = nullptr;
};

StageScheduler::StageScheduler(ThreadPool* pool, TextSource& source,
                               const FaultPolicy& policy)
    : pool_(pool),
      source_(source),
      // Only a caching decorator at the FRONT of the chain is consulted
      // per-outcome; a deeper one still works (Search/Fetch route through
      // it) but its outcomes are not attributable to stages from here.
      caching_(dynamic_cast<CachingTextSource*>(&source)),
      policy_(policy),
      state_(std::make_shared<State>()) {
  state_->cancel = CurrentCancelToken();
  state_->policy = &policy_;
}

StageScheduler::~StageScheduler() {
  // Leftover units (a caller that errored out before Wait) must still run:
  // their captures reference caller state that dies with the caller, and
  // pool drain jobs may already hold them.
  (void)Wait();
}

StageScheduler::StageId StageScheduler::AddStage(StageDesc desc) {
  std::lock_guard<std::mutex> lock(state_->mu);
  state_->stages.push_back(std::make_unique<StageCounters>());
  StageCounters* counters = state_->stages.back().get();
  counters->desc = std::move(desc);
  counters->rank = state_->stages.size() - 1;
  return counters;
}

Status StageScheduler::BatchCheckpoint() {
  // Only a fired kClient/kShutdown token aborts; an expired deadline is
  // ignored — per-operation shedding already handled it, and the rows in
  // hand are published. Counters stay untouched: a checkpoint is not an
  // operation.
  if (!state_->cancel.valid()) return Status::OK();
  Status cancel = state_->cancel.Check();
  if (!cancel.ok() && cancel.code() == StatusCode::kCancelled) return cancel;
  return Status::OK();
}

Status StageScheduler::CheckToken() {
  // Check() also arms the token when its deadline has passed.
  Status status = state_->cancel.Check();
  if (status.ok()) return status;
  if (status.code() == StatusCode::kCancelled) {
    // Client abort / shutdown: the query is going to error out with
    // kCancelled (permanent — no best-effort absorption, no torn rows),
    // but the report stays honest about the operation dropped.
    policy_.NoteCancelledOperation();
    return status;
  }
  // Shed: the deadline has passed, so this operation's answer can no
  // longer be useful — don't spend source traffic on it. The shed marks
  // the result incomplete; the method's HandleSourceFailure then decides
  // (via the DeadlineExceeded status) whether the query aborts (fail-fast)
  // or finishes with the rows it has (best-effort, which also counts the
  // unit among skipped_operations — shed says WHY it was dropped).
  policy_.NoteShedOperation();
  return status;
}

void StageScheduler::Spawn(StageId stage, uint64_t ordinal,
                           std::function<Status()> fn) {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->queue.push_back(Task{stage, ordinal, std::move(fn)});
    ++state_->pending;
  }
  state_->cv.notify_one();
  if (pool_ != nullptr && pool_->num_threads() > 0) {
    // One drain job per unit keeps every worker busy whenever the queue is
    // non-empty; a job that finds the queue already drained is a no-op.
    std::shared_ptr<State> state = state_;
    pool_->Run([state] { DrainOne(*state); });
  }
}

bool StageScheduler::DrainOne(State& state) {
  Task task;
  {
    std::lock_guard<std::mutex> lock(state.mu);
    if (state.queue.empty()) return false;
    task = std::move(state.queue.front());
    state.queue.pop_front();
  }
  ExecuteTask(state, std::move(task));
  return true;
}

void StageScheduler::ExecuteTask(State& state, Task task) {
  // Propagate the query token to whichever thread runs the unit, so every
  // source-side wait (retry backoff, limiter queue, chaos latency) under
  // this unit observes it. Pool workers carry no ambient token and need the
  // scope; the driving thread already has the identical token ambient (the
  // scheduler adopted it from there), and re-installing it would charge
  // every in-memory unit a shared_ptr copy + TLS swap for nothing — so skip
  // the scope when the states already match. Reading `state.cancel` without
  // the lock is safe: the constructor wrote it before any unit could spawn,
  // and the pool's task queue establishes happens-before for workers.
  std::optional<CancelScope> scope;
  if (state.cancel.valid() &&
      !state.cancel.SharesStateWith(CurrentCancelToken())) {
    scope.emplace(state.cancel);
  }
  // Once the token fires (client abort / shutdown), pending units drain
  // WITHOUT running: captures are released, the unit is accounted as
  // cancelled, and the sticky failure keeps kCancelled so the query can
  // never publish a torn row set. Deadline-armed tokens do NOT drain units
  // — their operations shed individually and the driver still assembles.
  Status status;
  if (Status cancel = state.cancel.Check();
      !cancel.ok() && cancel.code() == StatusCode::kCancelled) {
    state.policy->NoteCancelledOperation();
    task.fn = nullptr;  // Release captures before waiters may proceed.
    task.stage->units.fetch_add(1, std::memory_order_relaxed);
    status = std::move(cancel);
  } else {
    const uint64_t saved_op_ns = tls_op_ns;
    tls_op_ns = 0;
    const auto start = std::chrono::steady_clock::now();
    status = task.fn();
    const uint64_t elapsed = NsSince(start);
    const uint64_t inner_ops = tls_op_ns;
    // An enclosing scope (a driver draining inside a ScopedStageTimer) must
    // not double-count this unit's time as its own.
    tls_op_ns = saved_op_ns + elapsed;
    task.fn = nullptr;  // Release captures before waiters may proceed.
    task.stage->units.fetch_add(1, std::memory_order_relaxed);
    task.stage->wall_ns.fetch_add(
        elapsed > inner_ops ? elapsed - inner_ops : 0,
        std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(state.mu);
    if (!status.ok()) {
      const bool wins =
          !state.failed || task.stage->rank < state.fail_rank ||
          (task.stage->rank == state.fail_rank &&
           task.ordinal < state.fail_ordinal);
      if (wins) {
        state.failed = true;
        state.fail_rank = task.stage->rank;
        state.fail_ordinal = task.ordinal;
        state.failure = std::move(status);
      }
    }
    --state.pending;
  }
  state.cv.notify_all();
}

Status StageScheduler::Wait() {
  std::shared_ptr<State> state = state_;
  std::unique_lock<std::mutex> lock(state->mu);
  for (;;) {
    state->cv.wait(lock, [&state] {
      return !state->queue.empty() || state->pending == 0;
    });
    if (state->queue.empty()) break;  // pending == 0: everything ran.
    Task task = std::move(state->queue.front());
    state->queue.pop_front();
    lock.unlock();
    ExecuteTask(*state, std::move(task));
    lock.lock();
  }
  return state->failed ? state->failure : Status::OK();
}

void StageScheduler::NoteCancelledResult(const Status& status) {
  if (status.code() == StatusCode::kCancelled) {
    policy_.NoteCancelledOperation();
  }
}

template <typename T, typename Call>
Result<T> StageScheduler::Perform(StageId stage, const Call& call) {
  if (Status stop = CheckToken(); !stop.ok()) return stop;
  OpTimer timer(stage);
  CachingTextSource::Outcome outcome = CachingTextSource::Outcome::kMiss;
  Result<T> result = call(&outcome);
  constexpr auto kRelaxed = std::memory_order_relaxed;
  switch (outcome) {
    case CachingTextSource::Outcome::kMiss:
      // The upstream call happened: charge it as always.
      if (result.ok()) {
        if constexpr (std::is_same_v<T, Document>) {
          stage->long_docs.fetch_add(1, kRelaxed);
        } else {
          stage->invocations.fetch_add(1, kRelaxed);
          stage->short_docs.fetch_add(result->size(), kRelaxed);
        }
      }
      if (caching_ != nullptr) stage->cache_misses.fetch_add(1, kRelaxed);
      break;
    case CachingTextSource::Outcome::kHit:
      // No upstream call: the stage profile mirrors the meter (nothing
      // charged) and reports the hit separately.
      stage->cache_hits.fetch_add(1, kRelaxed);
      break;
    case CachingTextSource::Outcome::kCoalesced:
      // The ONE upstream call is charged by the leader's stage.
      stage->cache_coalesced.fetch_add(1, kRelaxed);
      break;
  }
  if (!result.ok()) NoteCancelledResult(result.status());
  return result;
}

Result<std::vector<std::string>> StageScheduler::Search(
    StageId stage, const TextQuery& query) {
  return Perform<std::vector<std::string>>(
      stage, [&](CachingTextSource::Outcome* outcome) {
        return caching_ != nullptr ? caching_->SearchWithOutcome(query, outcome)
                                   : source_.Search(query);
      });
}

Result<Document> StageScheduler::Fetch(StageId stage,
                                       const std::string& docid) {
  return Perform<Document>(stage, [&](CachingTextSource::Outcome* outcome) {
    return caching_ != nullptr ? caching_->FetchWithOutcome(docid, outcome)
                               : source_.Fetch(docid);
  });
}

void StageScheduler::ChargeRelationalMatches(StageId stage,
                                             uint64_t docs_scanned) {
  if (MeteredTextSource* metered = UnwrapMetered(&source_)) {
    metered->charging_meter().ChargeRelationalMatches(docs_scanned);
  }
  stage->relational_matches.fetch_add(docs_scanned,
                                      std::memory_order_relaxed);
}

std::optional<bool> StageScheduler::KnownProbe(const TextQuery& probe) const {
  if (caching_ == nullptr) return std::nullopt;
  return caching_->BeginProbe(probe);
}

void StageScheduler::RecordProbe(const TextQuery& probe, bool matched) const {
  if (caching_ != nullptr) caching_->RecordProbe(probe, matched);
}

void StageScheduler::NoteCacheHit(StageId stage) {
  caching_->NoteProbeHit();
  stage->cache_hits.fetch_add(1, std::memory_order_relaxed);
}

Status StageScheduler::HandleSourceFailure(Status status,
                                           bool affects_completeness) const {
  if (status.ok()) return status;
  const bool absorbable = policy_.best_effort() ||
                          (policy_.recovers() && !affects_completeness);
  if (absorbable && IsTransientError(status.code())) {
    policy_.NoteSkippedOperation(affects_completeness);
    return Status::OK();
  }
  return status;
}

PipelineProfile StageScheduler::Profile(
    const std::vector<StageId>& ids) const {
  PipelineProfile profile;
  profile.stages.reserve(ids.size());
  for (StageId id : ids) {
    StageStats stats;
    stats.desc = id->desc;
    stats.units = id->units.load(std::memory_order_relaxed);
    stats.wall_seconds =
        static_cast<double>(id->wall_ns.load(std::memory_order_relaxed)) /
        1e9;
    stats.invocations = id->invocations.load(std::memory_order_relaxed);
    stats.short_docs = id->short_docs.load(std::memory_order_relaxed);
    stats.long_docs = id->long_docs.load(std::memory_order_relaxed);
    stats.relational_matches =
        id->relational_matches.load(std::memory_order_relaxed);
    stats.cache_hits = id->cache_hits.load(std::memory_order_relaxed);
    stats.cache_misses = id->cache_misses.load(std::memory_order_relaxed);
    stats.cache_coalesced =
        id->cache_coalesced.load(std::memory_order_relaxed);
    profile.stages.push_back(std::move(stats));
  }
  return profile;
}

// ---------------------------------------------------------------------------
// Timers

ScopedStageTimer::ScopedStageTimer(StageScheduler::StageId stage,
                                   uint64_t units)
    : stage_(stage),
      units_(units),
      start_(std::chrono::steady_clock::now()),
      op_ns_at_start_(tls_op_ns) {}

ScopedStageTimer::~ScopedStageTimer() {
  const uint64_t elapsed = NsSince(start_);
  const uint64_t inner_ops = tls_op_ns - op_ns_at_start_;
  stage_->units.fetch_add(units_, std::memory_order_relaxed);
  stage_->wall_ns.fetch_add(elapsed > inner_ops ? elapsed - inner_ops : 0,
                            std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// DocFetcher

DocFetcher::DocFetcher(StageScheduler& sched, StageScheduler::StageId stage,
                       const TextRelationDecl& text, bool long_form)
    : sched_(sched), stage_(stage), text_(text), long_form_(long_form) {}

void DocFetcher::MatchEach(StageScheduler::StageId stage,
                           const ResolvedSpec& rspec, const RowIdSet& tuples) {
  ScopedStageTimer timer(stage, /*units=*/0);
  match_stage_ = stage;
  matcher_.emplace(rspec, tuples, FullMask(rspec.spec->joins.size()));
}

std::vector<size_t> DocFetcher::Fetch(const std::vector<std::string>& docids) {
  if (docids.empty()) return {};  // Most searches answer nothing: no lock.
  std::vector<size_t> slots;
  slots.reserve(docids.size());
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& docid : docids) slots.push_back(Request(docid));
  return slots;
}

std::vector<size_t> DocFetcher::FetchOnce(
    const std::vector<std::string>& docids) {
  if (docids.empty()) return {};
  std::vector<size_t> slots;
  slots.reserve(docids.size());
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::string& docid : docids) {
    const auto [it, inserted] = slot_of_.try_emplace(docid, slots_.size());
    if (inserted) Request(docid);
    slots.push_back(it->second);
  }
  return slots;
}

size_t DocFetcher::Request(const std::string& docid) {
  const size_t index = slots_.size();
  Slot* slot = &slots_.emplace_back();
  if (!long_form_) {
    slot->doc.docid = docid;
    return index;
  }
  sched_.Spawn(stage_, index, [this, slot, index, docid]() -> Status {
    Result<Document> fetched = sched_.Fetch(stage_, docid);
    if (!fetched.ok()) {
      // Absorbed => the slot keeps its placeholder Document, and no match
      // unit runs (there is nothing to match).
      return sched_.HandleSourceFailure(fetched.status(),
                                        /*affects_completeness=*/true);
    }
    slot->doc = *std::move(fetched);
    if (matcher_.has_value()) {
      sched_.Spawn(match_stage_, index, [this, slot] { return Match(*slot); });
    }
    return Status::OK();
  });
  return index;
}

Status DocFetcher::Match(Slot& slot) const {
  sched_.ChargeRelationalMatches(match_stage_, 1);
  const std::vector<std::string> fields = matcher_->PrepareDoc(slot.doc);
  for (size_t t = 0; t < matcher_->size(); ++t) {
    if (matcher_->Matches(t, fields)) slot.matched.push_back(t);
  }
  return Status::OK();
}

const Document& DocFetcher::doc(size_t slot) const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.at(slot).doc;
}

const std::vector<size_t>& DocFetcher::matched(size_t slot) const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.at(slot).matched;
}

size_t DocFetcher::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return slots_.size();
}

bool DocFetcher::AppendRow(size_t slot, TupleBatch& batch) const {
  const Document& doc = this->doc(slot);
  if (IsPlaceholderDoc(doc)) return false;
  std::span<Value> row = batch.AppendMutable();
  row[0] = Value::Str(doc.docid);
  if (!long_form_) {
    std::fill(row.begin() + 1, row.end(), Value::Null());
    return true;
  }
  for (size_t f = 0; f < text_.fields.size(); ++f) {
    row[f + 1] = Value::Str(JoinFieldValues(doc.FieldValues(text_.fields[f])));
  }
  return true;
}

// ---------------------------------------------------------------------------
// Method compositions

StageScheduler::StageId MethodContext::AddStage(StageKind kind,
                                                std::string detail) {
  stage_ids.push_back(sched.AddStage({kind, std::move(detail)}));
  return stage_ids.back();
}

namespace {

/// The DistinctKeys stage of both fronts: one unit of `stage`.
KeyGroups GroupTuples(const MethodContext& ctx, StageScheduler::StageId stage,
                      PredicateMask mask) {
  ScopedStageTimer timer(stage);
  return GroupRowsByTerms(ctx.rspec, ctx.left, mask);
}

/// The OR-batch plan: disjunct terms in deterministic group order, carved
/// into index ranges of at most batch_capacity disjuncts — keeping the
/// ranges, rather than sealed opaque queries, is what lets recovery
/// re-split a failed batch.
struct BatchPlan {
  std::vector<std::vector<std::string>> disjunct_terms;
  struct Range {
    size_t begin;
    size_t end;
  };
  std::vector<Range> ranges;
};

Result<BatchPlan> PlanBatches(
    const MethodContext& ctx,
    std::vector<std::vector<std::string>> disjunct_terms) {
  const ForeignJoinSpec& spec = *ctx.rspec.spec;
  const size_t selection_terms = spec.selections.size();
  const size_t terms_per_disjunct = spec.joins.size();
  const size_t m = ctx.sched.source().max_search_terms();
  if (selection_terms + terms_per_disjunct > m) {
    return Status::ResourceExhausted(
        "one disjunct already exceeds the term limit M=" + std::to_string(m));
  }
  const size_t batch_capacity =
      std::max<size_t>(1, (m - selection_terms) / terms_per_disjunct);
  BatchPlan plan;
  plan.disjunct_terms = std::move(disjunct_terms);
  for (size_t b = 0; b < plan.disjunct_terms.size(); b += batch_capacity) {
    plan.ranges.push_back(
        {b, std::min(b + batch_capacity, plan.disjunct_terms.size())});
  }
  return plan;
}

/// Builds the OR-batched search over the disjuncts [begin, end): the
/// selection terms AND'ed with the OR of the per-combination disjuncts.
TextQueryPtr BuildBatchQuery(
    const ResolvedSpec& rspec,
    const std::vector<std::vector<std::string>>& disjunct_terms,
    size_t begin, size_t end) {
  const ForeignJoinSpec& spec = *rspec.spec;
  const PredicateMask all = FullMask(spec.joins.size());
  std::vector<TextQueryPtr> disjuncts;
  disjuncts.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    disjuncts.push_back(BuildDisjunct(rspec, disjunct_terms[i], all));
  }
  std::vector<TextQueryPtr> children;
  for (const TextSelection& sel : spec.selections) {
    children.push_back(TextQuery::Term(sel.field, sel.term));
  }
  children.push_back(TextQuery::Or(std::move(disjuncts)));
  return TextQuery::And(std::move(children));
}

/// Method-level recovery for an OR-batch whose search failed transiently
/// even through the resilience layer: split the disjunct range in half and
/// try each half, recursing on halves that fail again. The base case is a
/// single disjunct — one combination's per-tuple search; if even that
/// fails, best-effort drops the disjunct (recorded as a skipped batch
/// unit) while retry-then-fail propagates `failure`. Smaller searches give
/// genuinely better odds: fewer terms, shorter server time, and each
/// retry-wrapped sub-search gets a fresh retry budget. Recovery runs
/// inside the failed batch's own unit, so other batches' fetches proceed
/// concurrently; the sub-searches it issues depend only on this batch's
/// own outcomes, never on scheduling order.
Result<std::vector<std::string>> RecoverBatch(
    StageScheduler& sched, StageScheduler::StageId search_stage,
    const ResolvedSpec& rspec,
    const std::vector<std::vector<std::string>>& disjunct_terms,
    size_t begin, size_t end, Status failure) {
  const FaultPolicy& policy = sched.policy();
  if (end - begin == 1) {
    if (policy.best_effort()) {
      policy.NoteSkippedBatch(1);
      return std::vector<std::string>{};
    }
    return failure;
  }
  policy.NoteResplit();
  const size_t mid = begin + (end - begin) / 2;
  std::vector<std::string> docids;
  for (const auto& [half_begin, half_end] :
       {std::pair{begin, mid}, std::pair{mid, end}}) {
    Result<std::vector<std::string>> half = sched.Search(
        search_stage,
        *BuildBatchQuery(rspec, disjunct_terms, half_begin, half_end));
    if (!half.ok()) {
      if (!IsTransientError(half.status().code())) return half.status();
      TEXTJOIN_ASSIGN_OR_RETURN(
          half, RecoverBatch(sched, search_stage, rspec, disjunct_terms,
                             half_begin, half_end, half.status()));
    }
    docids.insert(docids.end(), half->begin(), half->end());
  }
  return docids;
}

/// One OR-batch's search unit: searches batch `b` (re-splitting it when it
/// fails transiently under a recovering policy) and requests the answer's
/// documents through `fetcher`.FetchOnce, recording their slots in
/// `answer`.
Status SearchBatch(StageScheduler& sched, StageScheduler::StageId search,
                   const ResolvedSpec& rspec, const BatchPlan& plan, size_t b,
                   DocFetcher& fetcher, std::vector<size_t>& answer) {
  const BatchPlan::Range range = plan.ranges[b];
  const TextQueryPtr query =
      BuildBatchQuery(rspec, plan.disjunct_terms, range.begin, range.end);
  Result<std::vector<std::string>> searched = sched.Search(search, *query);
  if (!searched.ok()) {
    if (!sched.policy().recovers() ||
        !IsTransientError(searched.status().code())) {
      return searched.status();
    }
    TEXTJOIN_ASSIGN_OR_RETURN(
        searched, RecoverBatch(sched, search, rspec, plan.disjunct_terms,
                               range.begin, range.end, searched.status()));
  }
  answer = fetcher.FetchOnce(*searched);
  return Status::OK();
}

}  // namespace

GroupedSearches GroupAndBuildSearches(const MethodContext& ctx,
                                      StageScheduler::StageId keys,
                                      StageScheduler::StageId build,
                                      PredicateMask mask) {
  GroupedSearches out;
  out.groups = GroupTuples(ctx, keys, mask);
  ScopedStageTimer timer(build, out.groups.size());
  out.searches.reserve(out.groups.size());
  for (const std::vector<std::string>& terms : out.groups.terms) {
    out.searches.push_back(BuildSearch(ctx.rspec, terms, mask));
  }
  return out;
}

Status SpawnOrBatches(const MethodContext& ctx, StageScheduler::StageId keys,
                      StageScheduler::StageId build,
                      StageScheduler::StageId search, DocFetcher& fetcher,
                      std::vector<std::vector<size_t>>& answers) {
  KeyGroups groups =
      GroupTuples(ctx, keys, FullMask(ctx.rspec.spec->joins.size()));
  std::shared_ptr<const BatchPlan> plan;
  {
    ScopedStageTimer timer(build);
    TEXTJOIN_ASSIGN_OR_RETURN(BatchPlan planned,
                              PlanBatches(ctx, std::move(groups.terms)));
    plan = std::make_shared<const BatchPlan>(std::move(planned));
  }
  answers.assign(plan->ranges.size(), {});
  // The units outlive this frame: every capture is a value or a pointer to
  // caller-owned state, never a reference to a parameter or local here.
  StageScheduler* sched = &ctx.sched;
  const ResolvedSpec* rspec = &ctx.rspec;
  DocFetcher* docs = &fetcher;
  for (size_t b = 0; b < plan->ranges.size(); ++b) {
    std::vector<size_t>* answer = &answers[b];
    sched->Spawn(search, b, [sched, search, rspec, plan, b, docs, answer] {
      return SearchBatch(*sched, search, *rspec, *plan, b, *docs, *answer);
    });
  }
  return Status::OK();
}

std::vector<size_t> FirstSeenSlots(
    const std::vector<std::vector<size_t>>& answers, size_t num_slots) {
  std::vector<char> seen(num_slots, 0);
  std::vector<size_t> order;
  order.reserve(num_slots);
  for (const std::vector<size_t>& answer : answers) {
    for (size_t slot : answer) {
      if (seen[slot] != 0) continue;
      seen[slot] = 1;
      order.push_back(slot);
    }
  }
  return order;
}

Result<ForeignJoinResult> AssembleGroupOrder(
    const MethodContext& ctx, StageScheduler::StageId stage,
    const KeyGroups& groups, const DocFetcher& fetcher,
    const std::vector<std::vector<size_t>>& slots_per_group) {
  BatchAssembler assemble(ctx, stage);
  const size_t text_width = ctx.rspec.spec->text.fields.size() + 1;
  for (size_t g = 0; g < groups.size(); ++g) {
    const std::vector<size_t>& slots = slots_per_group[g];
    if (slots.empty()) continue;
    TupleBatch doc_rows(text_width, slots.size());
    for (size_t slot : slots) fetcher.AppendRow(slot, doc_rows);
    for (size_t r : groups.rows[g]) {
      for (size_t d = 0; d < doc_rows.size(); ++d) {
        TEXTJOIN_RETURN_IF_ERROR(assemble.AppendConcat(r, doc_rows.row(d)));
      }
    }
  }
  return assemble.Finish();
}

Result<ForeignJoinResult> AssembleMatchedDocs(
    const MethodContext& ctx, StageScheduler::StageId stage,
    const DocFetcher& fetcher, const std::vector<size_t>& order) {
  BatchAssembler assemble(ctx, stage);
  TupleBatch doc_row(ctx.rspec.spec->text.fields.size() + 1, 1);
  for (size_t slot : order) {
    const std::vector<size_t>& tuples = fetcher.matched(slot);
    if (tuples.empty()) continue;
    doc_row.Clear();
    fetcher.AppendRow(slot, doc_row);
    for (size_t t : tuples) {
      TEXTJOIN_RETURN_IF_ERROR(assemble.AppendConcat(t, doc_row.row(0)));
    }
  }
  return assemble.Finish();
}

namespace {

/// The paper's applicability preconditions for `method` over `spec`.
Status ValidateMethod(JoinMethodKind method, const ForeignJoinSpec& spec,
                      PredicateMask probe_mask) {
  const bool is_probe_method =
      method == JoinMethodKind::kPTS || method == JoinMethodKind::kPRTP;
  if (!is_probe_method && probe_mask != 0) {
    return Status::InvalidArgument(
        std::string("probe mask given to non-probing method ") +
        JoinMethodName(method));
  }
  if (is_probe_method) return ValidateProbeMask(spec, probe_mask);
  switch (method) {
    case JoinMethodKind::kTS:
      if (spec.selections.empty() && spec.joins.empty()) {
        return Status::InvalidArgument(
            "TS needs at least one text predicate to instantiate");
      }
      break;
    case JoinMethodKind::kRTP:
      if (spec.selections.empty()) {
        // Without selections, the single text search would be
        // unconstrained. The paper (Section 3.2): "This method further
        // requires that there are selection conditions on the text data."
        return Status::InvalidArgument(
            "RTP requires text selection conditions");
      }
      break;
    case JoinMethodKind::kSJ:
      if (spec.joins.empty()) {
        return Status::InvalidArgument("SJ requires text join predicates");
      }
      if (spec.left_columns_needed) {
        // Pure SJ cannot recover which tuple matched which document; the
        // paper applies it when "the query itself is a semi-join" (only
        // docids are projected). Use SJ+RTP otherwise.
        return Status::InvalidArgument(
            "SJ yields a doc-side semi-join; the query needs outer columns");
      }
      break;
    case JoinMethodKind::kSJRTP:
      if (spec.joins.empty()) {
        return Status::InvalidArgument(
            "SJ+RTP requires text join predicates");
      }
      break;
    case JoinMethodKind::kPTS:
    case JoinMethodKind::kPRTP:
      break;
  }
  return Status::OK();
}

}  // namespace

Result<ForeignJoinResult> RunForeignJoin(StageScheduler& sched,
                                         JoinMethodKind method,
                                         const ForeignJoinSpec& spec,
                                         const RowIdSet& left,
                                         PredicateMask probe_mask,
                                         PipelineProfile* profile) {
  TEXTJOIN_RETURN_IF_ERROR(ValidateMethod(method, spec, probe_mask));
  TEXTJOIN_ASSIGN_OR_RETURN(ResolvedSpec rspec, ResolveSpec(spec));
  MethodContext ctx{rspec, left, probe_mask, sched, {}};
  // At most one stage per kind.
  ctx.stage_ids.reserve(static_cast<size_t>(StageKind::kAssemble) + 1);
  Result<ForeignJoinResult> result = [&]() -> Result<ForeignJoinResult> {
    switch (method) {
      case JoinMethodKind::kTS:
        return RunTS(ctx);
      case JoinMethodKind::kRTP:
        return RunRTP(ctx);
      case JoinMethodKind::kSJ:
        return RunSJ(ctx);
      case JoinMethodKind::kSJRTP:
        return RunSJRTP(ctx);
      case JoinMethodKind::kPTS:
        return RunPTS(ctx);
      case JoinMethodKind::kPRTP:
        return RunPRTP(ctx);
    }
    TEXTJOIN_UNREACHABLE("bad JoinMethodKind");
  }();
  if (profile != nullptr) *profile = sched.Profile(ctx.stage_ids);
  return result;
}

}  // namespace textjoin::pipeline
