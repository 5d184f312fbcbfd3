#include "connector/overload.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "connector/resilience.h"

namespace textjoin {

// ---------------------------------------------------------------------------
// Hedge-attempt scope

namespace {

/// The enclosing hedge attempt's waste meter; null on ordinary threads.
/// Thread-local because a duplicate runs synchronously on one hedge-pool
/// thread — every layer it calls beneath sees the scope without plumbing.
thread_local AtomicAccessMeter* tls_hedge_waste = nullptr;

}  // namespace

bool InHedgeAttempt() { return tls_hedge_waste != nullptr; }

AtomicAccessMeter* HedgeWasteMeter() { return tls_hedge_waste; }

HedgeAttemptScope::HedgeAttemptScope(AtomicAccessMeter* waste)
    : previous_(tls_hedge_waste) {
  tls_hedge_waste = waste;
}

HedgeAttemptScope::~HedgeAttemptScope() { tls_hedge_waste = previous_; }

// ---------------------------------------------------------------------------
// AdaptiveLimiter

namespace {

/// How far the latency baseline drifts toward a healthy window's fastest
/// sample (slow tracking of genuine speedups; congestion never drags the
/// baseline up because only healthy windows drift).
constexpr double kBaselineDrift = 0.05;

AdaptiveLimiterOptions SanitizeLimiter(AdaptiveLimiterOptions options) {
  options.min_limit = std::max(1, options.min_limit);
  options.max_limit = std::max(options.min_limit, options.max_limit);
  options.initial_limit = std::clamp(options.initial_limit,
                                     options.min_limit, options.max_limit);
  options.window = std::max(1, options.window);
  options.decrease_factor = std::clamp(options.decrease_factor, 0.1, 1.0);
  return options;
}

}  // namespace

AdaptiveLimiter::AdaptiveLimiter(AdaptiveLimiterOptions options)
    : options_(SanitizeLimiter(std::move(options))),
      limit_(static_cast<double>(options_.initial_limit)) {}

AdaptiveLimiter::TimePoint AdaptiveLimiter::Now() const {
  return options_.clock ? options_.clock()
                        : std::chrono::steady_clock::now();
}

int AdaptiveLimiter::EffectiveLimitLocked() const {
  return std::max(options_.min_limit, static_cast<int>(limit_));
}

Result<bool> AdaptiveLimiter::Acquire(const CancelToken& token) {
  // An already-cancelled query never takes a permit, even when one is
  // free: the caller is about to unwind, and the permit would ride along
  // for the whole doomed round-trip. (A deadline-armed token is NOT shed
  // here — per-op deadline budgets govern that path, as always.)
  if (Status cancel = token.Check();
      cancel.code() == StatusCode::kCancelled) {
    return cancel;
  }
  {
    std::unique_lock<std::mutex> lock(mu_);
    if (in_flight_ < EffectiveLimitLocked()) {
      ++acquires_;
      ++in_flight_;
      return false;
    }
  }
  // Queue for a permit. The OnCancel registration is taken OUTSIDE mu_: an
  // already-cancelled token fires the callback inline, and the callback
  // locks mu_ (a notify must be ordered by the waiter's mutex or the wakeup
  // can be lost between the predicate check and the block).
  auto registration = token.OnCancel([this] {
    std::lock_guard<std::mutex> lock(mu_);
    cv_.notify_all();
  });
  const auto wait_deadline = token.wait_deadline();
  std::unique_lock<std::mutex> lock(mu_);
  TEXTJOIN_RETURN_IF_ERROR(token.Check());
  if (in_flight_ < EffectiveLimitLocked()) {
    ++acquires_;
    ++in_flight_;
    return false;
  }
  ++waits_;
  ++waiters_;
  const auto ready = [this, &token] {
    return token.cancelled() || in_flight_ < EffectiveLimitLocked();
  };
  while (true) {
    if (wait_deadline != std::chrono::steady_clock::time_point::max()) {
      // Real-clock deadline: wake at expiry so the shed is not at the mercy
      // of the next Release.
      cv_.wait_until(lock, wait_deadline, ready);
    } else {
      cv_.wait(lock, ready);
    }
    const Status cancel = token.Check();
    if (!cancel.ok()) {
      // Shed the queued entry immediately: no permit was ever held.
      --waiters_;
      return cancel;
    }
    if (in_flight_ < EffectiveLimitLocked()) break;
  }
  --waiters_;
  ++acquires_;
  ++in_flight_;
  return true;
}

void AdaptiveLimiter::RecordSampleLocked(std::chrono::nanoseconds rtt,
                                         bool transient_failure) {
  const uint64_t ns =
      rtt.count() > 0 ? static_cast<uint64_t>(rtt.count()) : 0;
  window_min_ns_ = window_count_ == 0 ? ns : std::min(window_min_ns_, ns);
  window_failed_ = window_failed_ || transient_failure;
  if (++window_count_ < options_.window) return;
  // One decision per window: any transient failure, or a window whose
  // FASTEST round-trip blew past the learned baseline (every sample slow
  // means the source itself is slow, not one unlucky request), backs off
  // multiplicatively; a healthy window earns one more permit.
  const double window_min = static_cast<double>(window_min_ns_);
  const bool congested =
      window_failed_ ||
      (baseline_set_ && window_min > options_.tolerance * baseline_ns_);
  if (congested) {
    limit_ = std::max(static_cast<double>(options_.min_limit),
                      limit_ * options_.decrease_factor);
    ++decreases_;
  } else {
    limit_ = std::min(static_cast<double>(options_.max_limit), limit_ + 1.0);
    ++increases_;
    if (!baseline_set_) {
      baseline_set_ = true;
      baseline_ns_ = window_min;
    } else {
      // Only healthy windows drift the baseline, so congestion can never
      // normalize itself by dragging the reference point up.
      baseline_ns_ += kBaselineDrift * (window_min - baseline_ns_);
    }
  }
  window_count_ = 0;
  window_failed_ = false;
}

void AdaptiveLimiter::Release(std::chrono::nanoseconds rtt,
                              bool transient_failure) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
    RecordSampleLocked(rtt, transient_failure);
  }
  // notify_all: an additive increase can free more than one waiter.
  cv_.notify_all();
}

bool AdaptiveLimiter::HasSpareCapacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return waiters_ == 0 && in_flight_ < EffectiveLimitLocked();
}

int AdaptiveLimiter::limit() const {
  std::lock_guard<std::mutex> lock(mu_);
  return EffectiveLimitLocked();
}

AdaptiveLimiterStats AdaptiveLimiter::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  AdaptiveLimiterStats stats;
  stats.limit = EffectiveLimitLocked();
  stats.in_flight = in_flight_;
  stats.waiters = waiters_;
  stats.acquires = acquires_;
  stats.waits = waits_;
  stats.increases = increases_;
  stats.decreases = decreases_;
  stats.baseline_ms = baseline_ns_ / 1e6;
  return stats;
}

// ---------------------------------------------------------------------------
// LimitedTextSource

template <typename T, typename Op>
Result<T> LimitedTextSource::Limited(const Op& op) const {
  Result<bool> permit = limiter_->Acquire(CurrentCancelToken());
  if (!permit.ok()) return permit.status();
  if (*permit) waits_.fetch_add(1, std::memory_order_relaxed);
  const auto start = limiter_->Now();
  Result<T> result = op();
  const auto rtt = std::chrono::duration_cast<std::chrono::nanoseconds>(
      limiter_->Now() - start);
  limiter_->Release(rtt,
                    !result.ok() && IsTransientError(result.status().code()));
  return result;
}

Result<std::vector<std::string>> LimitedTextSource::Search(
    const TextQuery& query) const {
  return Limited<std::vector<std::string>>(
      [&]() { return inner_->Search(query); });
}

Result<Document> LimitedTextSource::Fetch(const std::string& docid) const {
  return Limited<Document>([&]() { return inner_->Fetch(docid); });
}

// ---------------------------------------------------------------------------
// HedgeController

namespace {

constexpr size_t kRingSize = 512;        ///< RTT samples retained.
constexpr size_t kRecomputeEvery = 32;   ///< Records per delay recompute.

}  // namespace

HedgeController::HedgeController(HedgeOptions options)
    : options_(std::move(options)) {
  if (options_.pool_threads > 0) {
    pool_ = std::make_unique<ThreadPool>(options_.pool_threads);
  }
  samples_ns_.reserve(kRingSize);
}

HedgeController::TimePoint HedgeController::Now() const {
  return options_.clock ? options_.clock()
                        : std::chrono::steady_clock::now();
}

void HedgeController::RecordRtt(std::chrono::nanoseconds rtt) {
  const uint64_t ns =
      rtt.count() > 0 ? static_cast<uint64_t>(rtt.count()) : 0;
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_ns_.size() < kRingSize) {
    samples_ns_.push_back(ns);
  } else {
    samples_ns_[next_slot_] = ns;
    next_slot_ = (next_slot_ + 1) % kRingSize;
  }
  ++total_samples_;
  // The percentile is recomputed periodically, not per record: the delay
  // only needs to track the latency regime, and nth_element over the ring
  // is too dear for every operation. Recompute immediately on reaching
  // min_samples so hedging arms with a real figure, not the stale zero.
  if (total_samples_ % kRecomputeEvery == 0 ||
      total_samples_ == std::max<size_t>(options_.min_samples, 1)) {
    std::vector<uint64_t> sorted = samples_ns_;
    const size_t idx = static_cast<size_t>(
        options_.percentile * static_cast<double>(sorted.size() - 1));
    std::nth_element(sorted.begin(),
                     sorted.begin() + static_cast<ptrdiff_t>(idx),
                     sorted.end());
    cached_delay_ns_ = sorted[idx];
  }
}

std::optional<std::chrono::microseconds> HedgeController::HedgeDelay() const {
  if (pool_ == nullptr) return std::nullopt;
  uint64_t cached = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (total_samples_ < options_.min_samples) return std::nullopt;
    cached = cached_delay_ns_;
  }
  const auto raw = std::chrono::duration_cast<std::chrono::microseconds>(
      std::chrono::nanoseconds(cached));
  return std::clamp(raw, options_.min_delay, options_.max_delay);
}

HedgeControllerStats HedgeController::stats() const {
  HedgeControllerStats stats;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stats.samples = total_samples_;
  }
  stats.hedges = hedges_.load(std::memory_order_relaxed);
  stats.hedge_wins = wins_.load(std::memory_order_relaxed);
  stats.suppressed = suppressed_.load(std::memory_order_relaxed);
  stats.losers_cancelled = losers_cancelled_.load(std::memory_order_relaxed);
  if (const auto delay = HedgeDelay()) {
    stats.hedge_delay_ms =
        static_cast<double>(delay->count()) / 1e3;
  }
  return stats;
}

// ---------------------------------------------------------------------------
// HedgedTextSource

HedgedTextSource::~HedgedTextSource() {
  // Losers still racing reference the inner chain, which the owner tears
  // down right after this destructor — wait them out (they are synchronous
  // calls and always finish).
  Quiesce();
}

void HedgedTextSource::Quiesce() const {
  std::unique_lock<std::mutex> lock(task_mu_);
  task_cv_.wait(lock, [this] { return outstanding_tasks_ == 0; });
}

void HedgedTextSource::TaskStarted() const {
  std::lock_guard<std::mutex> lock(task_mu_);
  ++outstanding_tasks_;
}

void HedgedTextSource::TaskFinished() const {
  // Notify while holding the mutex: the waiter may be ~HedgedTextSource,
  // and an unlocked notify could run on a condition variable the woken
  // destructor has already torn down.
  std::lock_guard<std::mutex> lock(task_mu_);
  --outstanding_tasks_;
  task_cv_.notify_all();
}

template <typename T>
Result<T> HedgedTextSource::Hedged(std::function<Result<T>()> op) const {
  // Armed path: the primary runs on the controller's pool so this thread
  // is free to arm the duplicate when the delay expires (the boundary is a
  // synchronous protocol — a thread inside Search cannot also watch a
  // timer). First response wins. The duplicate runs under a child token so
  // the decided race can cancel the loser; the primary is never cancelled
  // by the race (its charges land on the main meter, and meter totals must
  // stay byte-identical to unhedged execution).
  const auto delay =
      controller_->HedgeDelay().value_or(std::chrono::microseconds(0));
  struct Race {
    std::mutex mu;
    std::condition_variable cv;
    std::optional<Result<T>> primary;
    std::optional<Result<T>> duplicate;
  };
  auto race = std::make_shared<Race>();
  HedgeController* controller = controller_;
  // The query token, captured here so the pool threads (which have no
  // ambient scope of their own) observe it inside the inner chain.
  CancelToken query_token = CurrentCancelToken();
  CancelToken loser_token;  // Minted only if a duplicate launches.
  const auto start = controller_->Now();
  TaskStarted();
  controller_->pool()->Run([this, race, op, controller, start, query_token] {
    CancelScope scope(query_token);
    Result<T> result = op();
    controller->RecordRtt(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            controller->Now() - start));
    {
      std::lock_guard<std::mutex> lock(race->mu);
      race->primary = std::move(result);
    }
    race->cv.notify_all();
    TaskFinished();
  });
  bool hedged = false;
  std::unique_lock<std::mutex> lock(race->mu);
  const bool answered = race->cv.wait_for(
      lock, delay, [&race] { return race->primary.has_value(); });
  if (!answered) {
    if (limiter_ != nullptr && !limiter_->HasSpareCapacity()) {
      // Duplicating now would displace queued demand — the limiter says
      // the source has no headroom, which is when hedges hurt the most.
      suppressed_.fetch_add(1, std::memory_order_relaxed);
      controller_->CountSuppressed();
    } else {
      hedges_.fetch_add(1, std::memory_order_relaxed);
      controller_->CountHedge();
      hedged = true;
      AtomicAccessMeter* waste = &waste_;
      loser_token = CancelToken::Make();
      // A cancelled query cancels its duplicates too; the link lives inside
      // the duplicate task so it cannot outlast the loser token's use.
      auto link = std::make_shared<CancelToken::Registration>(
          query_token.LinkChild(loser_token));
      CancelToken duplicate_token = loser_token;
      TaskStarted();
      lock.unlock();
      controller_->pool()->Run(
          [this, race, op, waste, duplicate_token, link] {
            CancelScope scope(duplicate_token);
            HedgeAttemptScope hedge_scope(waste);
            Result<T> result = op();
            {
              std::lock_guard<std::mutex> inner_lock(race->mu);
              race->duplicate = std::move(result);
            }
            race->cv.notify_all();
            TaskFinished();
          });
      lock.lock();
    }
  }
  race->cv.wait(lock, [&race] {
    return race->primary.has_value() || race->duplicate.has_value();
  });
  if (race->duplicate.has_value() && !race->primary.has_value()) {
    wins_.fetch_add(1, std::memory_order_relaxed);
    controller_->CountWin();
    return *std::move(race->duplicate);
  }
  const bool loser_pending = hedged && !race->duplicate.has_value();
  Result<T> result = *std::move(race->primary);
  lock.unlock();
  if (loser_pending && controller_->options().cancel_losers) {
    // The race is decided; stop the straggling duplicate at its next
    // cooperative checkpoint instead of letting it burn backend budget.
    loser_token.Cancel(CancelReason::kClient, "hedge race lost");
    losers_cancelled_.fetch_add(1, std::memory_order_relaxed);
    controller_->CountLoserCancelled();
  }
  return result;
}

Result<std::vector<std::string>> HedgedTextSource::Search(
    const TextQuery& query) const {
  ThreadPool* pool = controller_->pool();
  if (!controller_->HedgeDelay().has_value() || pool == nullptr ||
      pool->num_threads() == 0) {
    // Cold (or disabled) path: straight through on the caller's thread —
    // no dispatch, no clone, no overhead beyond two clock reads.
    const auto start = controller_->Now();
    Result<std::vector<std::string>> result = inner_->Search(query);
    controller_->RecordRtt(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            controller_->Now() - start));
    return result;
  }
  // The race outlives this frame when the loser straggles; it must not
  // borrow the caller's query reference.
  auto cloned = std::make_shared<const TextQueryPtr>(query.Clone());
  TextSource* inner = inner_;
  return Hedged<std::vector<std::string>>(
      [inner, cloned] { return inner->Search(**cloned); });
}

Result<Document> HedgedTextSource::Fetch(const std::string& docid) const {
  ThreadPool* pool = controller_->pool();
  if (!controller_->HedgeDelay().has_value() || pool == nullptr ||
      pool->num_threads() == 0) {
    const auto start = controller_->Now();
    Result<Document> result = inner_->Fetch(docid);
    controller_->RecordRtt(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            controller_->Now() - start));
    return result;
  }
  TextSource* inner = inner_;
  std::string id = docid;  // The straggling loser must own its operand.
  return Hedged<Document>(
      [inner, id = std::move(id)] { return inner->Fetch(id); });
}

HedgeActivity HedgedTextSource::activity() const {
  HedgeActivity activity;
  activity.hedges = hedges_.load(std::memory_order_relaxed);
  activity.hedge_wins = wins_.load(std::memory_order_relaxed);
  activity.suppressed = suppressed_.load(std::memory_order_relaxed);
  activity.losers_cancelled =
      losers_cancelled_.load(std::memory_order_relaxed);
  activity.waste = waste_.Snapshot();
  return activity;
}

// ---------------------------------------------------------------------------
// OverloadActivity

std::string OverloadActivity::ToString(const DegradationReport& degradation,
                                       bool stable) const {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "hedges=%llu wins=%llu suppressed=%llu waits=%llu "
                "limit=%d shed=%llu",
                static_cast<unsigned long long>(hedge.hedges),
                static_cast<unsigned long long>(hedge.hedge_wins),
                static_cast<unsigned long long>(hedge.suppressed),
                static_cast<unsigned long long>(limiter_waits), limit,
                static_cast<unsigned long long>(degradation.shed_operations));
  std::string out = buf;
  // New-in-cancellation fields render only when non-zero so pre-existing
  // EXPLAIN ANALYZE output stays byte-identical for untouched queries.
  if (degradation.cancelled_operations > 0) {
    std::snprintf(
        buf, sizeof(buf), " cancelled=%llu",
        static_cast<unsigned long long>(degradation.cancelled_operations));
    out += buf;
  }
  if (hedge.losers_cancelled > 0) {
    std::snprintf(buf, sizeof(buf), " losers_cancelled=%llu",
                  static_cast<unsigned long long>(hedge.losers_cancelled));
    out += buf;
  }
  if (!stable && admission_wait_seconds > 0.0) {
    std::snprintf(buf, sizeof(buf), " admission_wait=%.2fms",
                  admission_wait_seconds * 1e3);
    out += buf;
  }
  if (!(hedge.waste == AccessMeter{})) {
    out += " waste=[" + hedge.waste.ToString() + "]";
  }
  return out;
}

}  // namespace textjoin
