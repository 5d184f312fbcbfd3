#ifndef TEXTJOIN_CONNECTOR_CHAOS_H_
#define TEXTJOIN_CONNECTOR_CHAOS_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/cancel.h"
#include "common/status.h"
#include "connector/text_source.h"

/// \file
/// Deterministic fault injection at the TextSource boundary, shared by
/// tests and benches (robustness_test, resilience_test,
/// bench_fault_tolerance). A seeded ChaosTextSource decorator misbehaves
/// the way a real remote text server does — failed calls, slow calls,
/// truncated result sets — but reproducibly: the same seed and the same
/// serial call sequence inject the same faults every run.

namespace textjoin {

/// What to inject. By default injections are decided from a seeded hash of
/// the operation's global ordinal, so a serial execution is exactly
/// reproducible; under concurrency the multiset of injected faults is
/// fixed even though their assignment to operations follows the schedule.
/// With `content_keyed` the decision hashes the operation's content
/// instead (the search's rendered query / the fetched docid), so the SAME
/// operations fail at ANY parallelism and schedule — the mode the
/// byte-identity property tests need to compare parallel against serial
/// execution under faults.
struct ChaosOptions {
  uint64_t seed = 1;

  /// Key fault decisions on operation content instead of arrival ordinal.
  /// `failure_period` (below) stays ordinal-based — a period is inherently
  /// a statement about the call sequence.
  bool content_keyed = false;

  /// Probability that a Search / Fetch fails outright with `failure_code`.
  double search_failure_rate = 0.0;
  double fetch_failure_rate = 0.0;

  /// Deterministic periodic faults: every `failure_period`-th operation
  /// (search or fetch, one shared counter) fails, regardless of the rates.
  /// 0 disables. Period 1 fails every call — a dead server.
  int failure_period = 0;

  /// Seeded per-op latency injection (exercises deadlines, hedging and the
  /// adaptive limiter): every search / fetch takes its base latency, except
  /// that a `slow_rate` fraction — drawn deterministically like the faults
  /// above, and content-keyed under `content_keyed` — takes `slow_latency`
  /// instead (a heavy-tailed slow-call distribution). Latency is delivered
  /// through `latency_sink` when set (tests advance a fake clock there —
  /// no wall-clock sleeps), otherwise slept for real.
  std::chrono::microseconds search_latency{0};
  std::chrono::microseconds fetch_latency{0};
  double slow_rate = 0.0;
  std::chrono::microseconds slow_latency{0};
  std::function<void(std::chrono::microseconds)> latency_sink;

  /// Probability that a *successful* search loses the tail half of its
  /// result set (a truncated response the client cannot distinguish from a
  /// small result — the nastiest failure mode).
  double truncate_rate = 0.0;

  /// Status code of injected failures. Unavailable models a flaky network;
  /// Internal models a server-side fault. Both classify as transient.
  StatusCode failure_code = StatusCode::kUnavailable;

  /// Deterministic, seed-free cancellation-point injection: fire the
  /// current thread's ambient CancelToken at exactly the N-th operation
  /// (the shared search+fetch ordinal, 1-based; 0 disables).
  /// `cancel_before_op` cancels before op N runs, so op N itself is the
  /// first to observe cancellation; `cancel_after_op` cancels after op N
  /// completed normally, so op N+1 is. Together they let the cancellation
  /// grid enumerate every boundary interleaving without wall-clock races.
  int64_t cancel_before_op = 0;
  int64_t cancel_after_op = 0;
  /// The reason injected cancellations fire with (kClient by default;
  /// tests use kShutdown to exercise the drain path).
  CancelReason cancel_reason = CancelReason::kClient;
};

/// Counters of the injected mischief (value snapshot).
struct ChaosStats {
  uint64_t search_failures = 0;
  uint64_t fetch_failures = 0;
  uint64_t slow_calls = 0;  ///< Operations that drew `slow_latency`.
  uint64_t truncated_searches = 0;
  uint64_t cancelled_operations = 0;  ///< Ops aborted by an armed token.
  uint64_t operations = 0;  ///< Total Search+Fetch calls observed.
};

/// The fault-injection decorator. Thread-safe: counters are atomics and
/// the decision function is pure, so concurrent use is TSan-clean.
class ChaosTextSource final : public TextSourceDecorator {
 public:
  /// `inner` must outlive this object.
  explicit ChaosTextSource(TextSource* inner, ChaosOptions options = {})
      : TextSourceDecorator(inner), options_(options) {}

  Result<std::vector<std::string>> Search(
      const TextQuery& query) const override;
  Result<Document> Fetch(const std::string& docid) const override;

  ChaosStats stats() const;

 private:
  /// Uniform draw in [0, 1) as a pure function of (seed, key, salt). `key`
  /// is the operation's ordinal or, under `content_keyed`, a hash of its
  /// content.
  double Draw(uint64_t key, uint64_t salt) const;
  /// Decides failure; `ordinal` drives the period, `key` drives the rate.
  bool ShouldFail(uint64_t ordinal, uint64_t key, double rate) const;
  /// Injects the per-op base latency (or the slow-call latency when the
  /// seeded draw selects this operation).
  void InjectLatency(uint64_t key, std::chrono::microseconds base) const;
  /// Delivers a delay through the sink or a token-interruptible sleep (so
  /// injected lag cannot pin a cancelled query to the wall clock).
  void Delay(std::chrono::microseconds delay) const;
  /// Fires the ambient token when `ordinal` matches the injection point.
  void MaybeInjectCancel(uint64_t ordinal, int64_t at) const;

  ChaosOptions options_;
  mutable std::atomic<uint64_t> ops_{0};
  mutable std::atomic<uint64_t> search_failures_{0};
  mutable std::atomic<uint64_t> fetch_failures_{0};
  mutable std::atomic<uint64_t> slow_calls_{0};
  mutable std::atomic<uint64_t> truncated_{0};
  mutable std::atomic<uint64_t> cancelled_{0};
};

}  // namespace textjoin

#endif  // TEXTJOIN_CONNECTOR_CHAOS_H_
