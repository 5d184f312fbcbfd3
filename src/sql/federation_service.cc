#include "sql/federation_service.h"

#include "sql/parser.h"

namespace textjoin {

FederationService::PinnedCorpora FederationService::PinCorpora(
    uint64_t pinned_epoch) const {
  PinnedCorpora pinned;
  pinned.shards.reserve(backend_->num_shards());
  pinned.snapshots.reserve(options_.live.has_value() ? backend_->num_shards()
                                                     : 0);
  for (const BackendTopology::Shard& shard : backend_->topology().shards) {
    const SearchableCorpus* corpus = shard.replicas[0].corpus;
    if (corpus->mutable_corpus()) {
      pinned.snapshots.push_back(corpus->SnapshotAt(pinned_epoch));
      corpus = pinned.snapshots.back().get();
    }
    pinned.shards.push_back(corpus);
    pinned.num_documents += corpus->num_documents();
  }
  return pinned;
}

Status FederationService::EnsureStatistics(const FederatedQuery& query,
                                           const PinnedCorpora& corpora,
                                           uint64_t pinned_epoch) {
  if (options_.oracle_stats) {
    return ComputeExactStats(query, *catalog_, corpora.shards, registry_);
  }
  // The sampled provider searches through a bare router: it sees the whole
  // sharded corpus at this query's pin, trips no breaker and takes no
  // limiter permit. It is minted only when a key needs a search.
  std::unique_ptr<ShardedTextSource> router;
  return ComputeSampledStats(
      query, *catalog_,
      [&]() -> TextSource& {
        router = backend_->MakeBareSource(pinned_epoch);
        router->SetMeter(&stats_meter_);
        return *router;
      },
      options_.sample_size, rng_, registry_);
}

Result<FederationService::PlannedQueryPtr> FederationService::PlanSql(
    const std::string& sql, uint64_t pinned_epoch) {
  // An entry is valid while nothing the enumerator read has changed: the
  // registry's stored values (its generation moves when one changes; an
  // insert adds a key no cached plan read) and the document count. The
  // catalog, topology and options are fixed.
  std::optional<PinnedCorpora> live_corpora;
  if (options_.live.has_value()) live_corpora = PinCorpora(pinned_epoch);
  const PinnedCorpora& corpora =
      live_corpora.has_value() ? *live_corpora : frozen_corpora_;
  const size_t documents = corpora.num_documents;
  const auto valid = [documents](const PlannedQuery& entry,
                                 uint64_t generation) {
    return entry.stats_generation == generation &&
           entry.num_documents == documents;
  };
  PlannedQueryPtr cached = plan_cache_.Find(sql);
  // Sampled statistics are acquired once per predicate and never
  // refreshed, so a valid entry is the answer without taking stats_mu_.
  if (!options_.oracle_stats && cached != nullptr &&
      valid(*cached, registry_.generation())) {
    return cached;
  }
  // Parse outside the lock; a cached entry's query is reused as is.
  std::shared_ptr<const FederatedQuery> query;
  if (cached == nullptr) {
    TEXTJOIN_ASSIGN_OR_RETURN(FederatedQuery parsed,
                              ParseQuery(sql, options_.text));
    query = std::make_shared<const FederatedQuery>(std::move(parsed));
  }
  std::lock_guard<std::mutex> lock(stats_mu_);
  // Concurrent misses of one text plan it once: the first to get here
  // inserts, the others find its entry.
  if (cached == nullptr) cached = plan_cache_.Find(sql);
  if (cached != nullptr) query = cached->query;
  // Oracle statistics are recomputed on every query; the plan is reused
  // only if that changed nothing.
  TEXTJOIN_RETURN_IF_ERROR(EnsureStatistics(*query, corpora, pinned_epoch));
  const uint64_t generation = registry_.generation();
  if (cached != nullptr && valid(*cached, generation)) return cached;
  Enumerator enumerator(catalog_, &registry_, documents,
                        backend_->topology().max_search_terms(),
                        options_.enumerator);
  TEXTJOIN_ASSIGN_OR_RETURN(PlanNodePtr plan, enumerator.Optimize(*query));
  std::string chosen_plan = plan->ToString(*query);
  std::string explain = query->ToString() + "\n" + chosen_plan;
  PlannedQueryPtr planned = std::make_shared<const PlannedQuery>(
      PlannedQuery{std::move(query), std::move(plan), std::move(chosen_plan),
                   std::move(explain), generation, documents});
  plan_cache_.Insert(sql, planned);
  return planned;
}

FederationService::PlannedQueryPtr FederationService::PlanCache::Find(
    std::string_view sql) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(sql);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void FederationService::PlanCache::Insert(const std::string& sql,
                                          PlannedQueryPtr entry) {
  PlannedQueryPtr evicted;  // Destroyed after the lock is released.
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(sql);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    evicted = std::exchange(it->second->second, std::move(entry));
    return;
  }
  lru_.emplace_front(sql, std::move(entry));
  index_.emplace(lru_.front().first, lru_.begin());
  if (lru_.size() > kPlanCacheEntries) {
    index_.erase(lru_.back().first);
    evicted = std::move(lru_.back().second);
    lru_.pop_back();
  }
}

Result<QueryOutcome> FederationService::Run(const std::string& sql) {
  return Run(sql, RunOptions{});
}

Result<QueryOutcome> FederationService::Run(const std::string& sql,
                                            const RunOptions& run) {
  // One per-query token is THE cancellation path: the client's RunOptions
  // token links into it, deadline expiry arms it, and Drain() fires it
  // with kShutdown. Registered before any work so a drain that starts
  // while we parse still reaches this query.
  CancelToken token = CancelToken::Make();
  CancelToken::Registration client_link;
  if (run.cancel.valid()) client_link = run.cancel.LinkChild(token);
  uint64_t query_id = 0;
  {
    std::lock_guard<std::mutex> lock(lifecycle_mu_);
    if (draining_) {
      return Status::Unavailable("service draining; new queries refused");
    }
    query_id = next_query_id_++;
    active_.emplace(query_id, token);
  }
  // Unregister on EVERY exit path; the notify wakes a waiting Drain().
  struct ActiveGuard {
    FederationService* service;
    uint64_t id;
    ~ActiveGuard() {
      {
        std::lock_guard<std::mutex> lock(service->lifecycle_mu_);
        service->active_.erase(id);
      }
      service->lifecycle_cv_.notify_all();
    }
  } unregister{this, query_id};
  // Ambient for this thread: statistics sampling and planning observe the
  // token, and the executor's stage scheduler adopts it as the query's
  // cancel token and deadline.
  CancelScope cancel_scope(token);

  // Live mode: pin the corpus version NOW, before statistics or planning
  // touch the corpus. Everything downstream — oracle probes, sampling,
  // the planner's document count, the router's replica snapshots, the
  // cache's validity gate — reads exactly this epoch, so a query never
  // observes a torn corpus no matter how writers race it.
  const uint64_t pinned_epoch = options_.live.has_value()
                                    ? options_.live->clock->published()
                                    : kUnpinnedEpoch;

  TEXTJOIN_ASSIGN_OR_RETURN(PlannedQueryPtr planned,
                            PlanSql(sql, pinned_epoch));
  const PlanNode& plan = *planned->plan;

  // Query deadline: per-call override, else the service default, else
  // none. Computed and checked on deadline_clock everywhere (the one
  // injectable query-deadline clock). Expiry arms the SAME token, so
  // deadline aborts and client aborts take one cooperative path.
  const std::chrono::microseconds budget =
      run.deadline.value_or(options_.default_deadline);
  const auto& deadline_clock = options_.deadline_clock;
  const auto now = [&deadline_clock] {
    return deadline_clock ? deadline_clock() : std::chrono::steady_clock::now();
  };
  const auto deadline_tp = budget.count() > 0
                               ? now() + budget
                               : std::chrono::steady_clock::time_point::max();
  if (deadline_tp != std::chrono::steady_clock::time_point::max()) {
    token.SetDeadline(deadline_tp, deadline_clock);
  }
  const int priority = run.priority.value_or(0);
  const TenantId tenant = run.tenant.value_or(TenantId());
  TEXTJOIN_RETURN_IF_ERROR(token.Check());

  // Admission: bounded queueing for an execution slot; sheds queries whose
  // remaining deadline cannot cover the plan's estimated cost, and sheds
  // queued entries immediately when their token fires. The ticket holds
  // the slot for the rest of this call.
  AdmissionTicket ticket;
  if (admission_ != nullptr) {
    TEXTJOIN_ASSIGN_OR_RETURN(
        ticket,
        admission_->Admit(plan.est_cost, deadline_tp, priority, token,
                          tenant));
  }

  // A private router per call isolates its logical meter: the outcome's
  // delta is exact even when other Run()s execute concurrently. The router
  // rebuilds the chain per replica from the ChainSpec —
  //   meter -> [replica decorator] -> [chaos/test decorator] ->
  //   [resilient] -> [limiter] -> mux -> [hedging] -> router
  // — with the shared breakers/limiters/hedge controllers from backend_,
  // and the cross-query cache goes OUTERMOST, above the router, so a hit
  // skips scatter, hedging, retries, breakers and the meter entirely. For
  // a single backend this chain is layer-for-layer the pre-topology one.
  // Declaration order matters: reverse destruction tears the stack down
  // outside-in, and each shard's ~HedgedTextSource (inside the router)
  // waits out straggling hedge losers before the layers they call die.
  std::unique_ptr<ShardedTextSource> router =
      backend_->MakeQuerySource(options_.execution_source_decorator,
                                pinned_epoch);
  router->set_failure_mode(options_.failure_mode);
  TextSource* exec_source = router.get();
  std::unique_ptr<CachingTextSource> caching;
  if (cache_ != nullptr) {
    caching = std::make_unique<CachingTextSource>(exec_source, cache_, tenant,
                                                  pinned_epoch);
    exec_source = caching.get();
  }
  ExecutorOptions exec_options;
  exec_options.parallelism = options_.parallelism;
  exec_options.failure_mode = options_.failure_mode;
  PlanExecutor executor(catalog_, exec_source, exec_options, pool_.get());
  QueryOutcome outcome;
  TEXTJOIN_ASSIGN_OR_RETURN(
      outcome.rows, executor.Execute(plan, *planned->query, &outcome.profile,
                                     &outcome.degradation));
  // One read of the router's account. It settles straggling hedge losers
  // first, so the waste account and the meter read below are final.
  RouterActivity activity = router->activity();
  outcome.degradation.resilience = activity.resilience;
  outcome.overload = activity.overload;
  outcome.overload.admission_wait_seconds = ticket.wait_seconds();
  // Per-shard physical attribution — and the honest account of shard
  // contributions a best-effort broadcast dropped.
  outcome.shards = std::move(activity.shards);
  if (outcome.shards.dropped_shards > 0) {
    outcome.degradation.skipped_operations += outcome.shards.dropped_shards;
    outcome.degradation.complete = false;
  }
  if (caching != nullptr) outcome.cache = caching->activity();
  outcome.corpus = router->corpus_pin();
  outcome.meter_delta = router->meter();
  outcome.chosen_plan = planned->chosen_plan;
  outcome.plan = planned->plan;
  outcome.query = planned->query;
  cumulative_.Add(outcome.meter_delta);
  return outcome;
}

std::string ExplainAnalyze(const QueryOutcome& outcome, RenderMode mode) {
  const bool stable = mode == RenderMode::kStable;
  std::string out = ExplainAnalyze(*outcome.plan, *outcome.query,
                                   outcome.profile, CostParams{}, mode);
  // The overload account, rendered only when the layer did anything or
  // the deadline shed / cancellation dropped work (overload-off output
  // stays byte-identical to before). In stable mode "anything" excludes
  // pure queueing time, so a query whose only activity was an admission
  // wait still matches its golden.
  const DegradationReport& degradation = outcome.degradation;
  if (!outcome.overload.empty(/*ignore_timing=*/stable) ||
      degradation.shed_operations != 0 ||
      degradation.cancelled_operations != 0) {
    out += "| overload " + outcome.overload.ToString(degradation, stable) +
           "\n";
  }
  // Corpus pin, rendered only for mutable (live) corpora: which epoch the
  // query read and how much of it was still served from delta chunks.
  // Deterministic in both modes for a fixed write history.
  if (outcome.corpus.mutable_corpus) {
    out += "| corpus epoch=" + std::to_string(outcome.corpus.epoch) +
           " delta_docs=" + std::to_string(outcome.corpus.delta_docs) +
           " docs=" + std::to_string(outcome.corpus.visible_docs) + "\n";
  }
  // Per-shard-replica physical attribution, present only for sharded
  // topologies (single-backend output stays byte-identical). The router
  // reports replicas in (shard, replica) order.
  for (const ShardReplicaActivity& replica : outcome.shards.replicas) {
    out += "| shard " + replica.ToString() + "\n";
  }
  return out;
}

// ---------------------------------------------------------------------------
// QueryHandle / Launch / Drain

/// The handle's shared half: the worker thread and its (write-once)
/// outcome. The join in Await()/~QueryHandle is the synchronization point
/// for `result`, so no further locking is needed.
struct FederationService::QueryHandle::Shared {
  std::thread thread;
  std::optional<Result<QueryOutcome>> result;
};

FederationService::QueryHandle::~QueryHandle() {
  if (shared_ != nullptr && shared_->thread.joinable()) {
    shared_->thread.join();
  }
}

void FederationService::QueryHandle::Cancel(std::string reason) {
  token_.Cancel(CancelReason::kClient, std::move(reason));
}

Result<QueryOutcome> FederationService::QueryHandle::Await() {
  if (shared_ == nullptr) {
    return Status::InvalidArgument("Await on an empty QueryHandle");
  }
  if (shared_->thread.joinable()) shared_->thread.join();
  if (!shared_->result.has_value()) {
    return Status::InvalidArgument("QueryHandle already awaited");
  }
  Result<QueryOutcome> result = *std::move(shared_->result);
  shared_->result.reset();
  return result;
}

FederationService::QueryHandle FederationService::Launch(const std::string& sql,
                                                         RunOptions run) {
  QueryHandle handle;
  handle.token_ = CancelToken::Make();
  // An external RunOptions token keeps working: it fans into the handle's.
  if (run.cancel.valid()) handle.link_ = run.cancel.LinkChild(handle.token_);
  run.cancel = handle.token_;
  handle.shared_ = std::make_shared<QueryHandle::Shared>();
  std::shared_ptr<QueryHandle::Shared> shared = handle.shared_;
  handle.shared_->thread = std::thread(
      [this, shared, sql, run] { shared->result.emplace(Run(sql, run)); });
  return handle;
}

FederationService::DrainReport FederationService::Drain(
    std::chrono::microseconds budget) {
  std::unique_lock<std::mutex> lock(lifecycle_mu_);
  draining_ = true;  // From here on, Run()/Launch() refuse with kUnavailable.
  DrainReport report;
  report.in_flight = active_.size();
  // Give in-flight queries the budget to finish on their own. Real clock:
  // draining is an operational action, not part of any simulated workload.
  const auto deadline = std::chrono::steady_clock::now() + budget;
  lifecycle_cv_.wait_until(lock, deadline, [this] { return active_.empty(); });
  report.finished = report.in_flight - active_.size();
  if (!active_.empty()) {
    // Hard-cancel the stragglers through their own tokens — the same
    // cooperative path client aborts take — then wait for them to unwind
    // (they must release permits, tickets and pool jobs on the way out).
    report.cancelled = active_.size();
    for (auto& [id, token] : active_) {
      token.Cancel(CancelReason::kShutdown,
                   "service drain budget exhausted; query cancelled");
    }
    lifecycle_cv_.wait(lock, [this] { return active_.empty(); });
  }
  // With no queries left in flight, stop folding segments. (Stop is
  // idempotent; the worker never touches lifecycle_mu_.)
  if (merge_worker_ != nullptr) merge_worker_->Stop();
  return report;
}

Result<std::string> FederationService::Explain(const std::string& sql) {
  const uint64_t pinned_epoch = options_.live.has_value()
                                    ? options_.live->clock->published()
                                    : kUnpinnedEpoch;
  TEXTJOIN_ASSIGN_OR_RETURN(PlannedQueryPtr planned,
                            PlanSql(sql, pinned_epoch));
  return planned->explain;
}

}  // namespace textjoin
