#ifndef TEXTJOIN_CONNECTOR_SHARDING_H_
#define TEXTJOIN_CONNECTOR_SHARDING_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_pool.h"
#include "connector/cost_meter.h"
#include "connector/overload.h"
#include "connector/remote_text_source.h"
#include "connector/resilience.h"
#include "connector/text_cache.h"
#include "connector/text_source.h"
#include "text/searchable.h"

/// \file
/// Sharded, replicated text backends behind one TextSource.
///
/// The paper (and PRs 1-5) assume ONE external text server. This layer
/// splits the corpus across N shards (docid-hash partitioning) with R
/// replicas each and routes through a ShardedTextSource:
///
///   - Search is a term broadcast: scattered to every shard, the per-shard
///     result sets merged deterministically by global document ordinal, so
///     the router returns docids in exactly the order the single-backend
///     source would.
///   - Fetch routes to the owning shard by docid hash.
///   - Each (shard, replica) gets its OWN decorator chain — resilience,
///     adaptive limiter, circuit breaker — rebuilt per query from one
///     ChainSpec, plus a per-shard hedge controller. One sick replica fails
///     over (open breaker, transient error) without poisoning the rest, and
///     a hedge duplicate is sent to a DIFFERENT replica of the same shard
///     (PR 5's hedging, reused as cross-replica hedging).
///
/// Metering contract: the router is a MeteredTextSource whose meter reports
/// the aggregate LOGICAL cost — byte-identical to the single-backend meter
/// for the same rows (provided the shard engines evaluate exhaustively; see
/// TextEngine::set_exhaustive_eval). Per-replica PHYSICAL traffic —
/// including failover retries and hedge-duplicate waste — is attributed in
/// ShardActivity, rendered as "| shard" lines in EXPLAIN ANALYZE.

namespace textjoin {

class ShardedBackend;
class ShardedTextSource;

/// Stable docid-hash partitioner (FNV-1a), the default placement and
/// routing function for every topology.
inline size_t ShardForDocid(const std::string& docid, size_t num_shards) {
  uint64_t h = 1469598103934665603ull;
  for (unsigned char c : docid) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return num_shards <= 1 ? 0 : static_cast<size_t>(h % num_shards);
}

// ---------------------------------------------------------------------------
// ChainSpec

/// The composable per-query decorator chain, replacing the flat
/// `enable_X` bool + `XOptions` pairs: presence of an optional means the
/// layer is engaged. Layer placement (outermost first):
///
///   cache -> [per shard: hedging -> [per replica: limiter -> resilience]]
///            -> meter
///
/// `cache` is a LOGICAL layer: it sits above the router (one cache keyed on
/// logical operations, shared across shards) and is consumed by
/// FederationService, not by ShardedBackend. `hedging` is per shard;
/// `limiter` and `resilience` (with its nested breaker, governed by
/// ResilienceOptions::enable_breaker) are per replica.
struct ChainSpec {
  std::optional<CacheOptions> cache;
  std::optional<HedgeOptions> hedging;
  std::optional<AdaptiveLimiterOptions> limiter;
  std::optional<ResilienceOptions> resilience;
};

// ---------------------------------------------------------------------------
// BackendTopology

/// Declarative description of where the corpus lives: N shards, each with
/// R replica corpora holding identical documents. A single backend is just
/// a topology of one shard, one replica — and executes byte-identically to
/// the pre-topology code path.
struct BackendTopology {
  /// A wrapper over one simulated server process. `decorator` optionally
  /// wraps the replica's metered source (fault injection, latency
  /// simulation) before the resilience layer — this is how tests kill or
  /// lag ONE replica.
  struct Replica {
    const SearchableCorpus* corpus = nullptr;
    std::function<std::unique_ptr<TextSource>(TextSource*)> decorator;
  };

  struct Shard {
    std::vector<Replica> replicas;
  };

  std::vector<Shard> shards;

  /// Maps a docid to its owning shard for Fetch routing. Null means
  /// ShardForDocid over num_shards(). Must agree with how documents were
  /// actually placed.
  std::function<size_t(const std::string&)> partitioner;

  /// Maps a docid to its global document ordinal (the DocNum it has — or
  /// would have — in the unsharded corpus), used to merge scattered search
  /// results into the exact single-backend order. Required when
  /// num_shards() > 1.
  std::function<int64_t(const std::string&)> global_ordinal;

  static BackendTopology Single(const SearchableCorpus* corpus) {
    BackendTopology topology;
    topology.shards.push_back(Shard{{Replica{corpus, nullptr}}});
    return topology;
  }

  bool empty() const { return shards.empty(); }
  size_t num_shards() const { return shards.size(); }

  /// Total replica count across all shards.
  size_t num_replicas() const {
    size_t n = 0;
    for (const Shard& shard : shards) n += shard.replicas.size();
    return n;
  }

  /// The broadcast-safe term limit: the minimum across shards.
  size_t max_search_terms() const;

  /// The tightest per-corpus concurrency cap (0 = unlimited).
  int max_concurrency() const;

  /// Structural checks: at least one shard, every shard has at least one
  /// replica with a corpus, replicas of a shard agree on document count,
  /// and multi-shard topologies supply global_ordinal.
  Status Validate() const;
};

// ---------------------------------------------------------------------------
// Per-shard attribution

/// One replica's physical activity over a query: the traffic it actually
/// served (including failover retries and hedge duplicates), errors seen,
/// and times it was reached by failing over from a sibling.
struct ShardReplicaActivity {
  size_t shard = 0;
  size_t replica = 0;
  AccessMeter meter;  ///< Physical traffic served by this replica.
  uint64_t ops = 0;        ///< Operations dispatched to this replica.
  uint64_t errors = 0;     ///< Operations that returned an error here.
  uint64_t failovers = 0;  ///< Ops that arrived by failover from a sibling.
  ResilienceStats resilience;  ///< This replica's retry/breaker activity.

  /// "s0.r1 ops=12 errors=3 failovers=3 inv=9 post=120 short=40 long=2".
  std::string ToString() const;
};

/// Router-level attribution for one query. A single-shard router neither
/// scatters nor routes, and its one shard's traffic is the logical meter
/// itself, so for it `replicas` stays empty and the counters stay zero.
struct ShardActivity {
  std::vector<ShardReplicaActivity> replicas;  ///< In (shard, replica) order.
  uint64_t broadcasts = 0;       ///< Searches scattered to every shard.
  uint64_t routed_fetches = 0;   ///< Fetches routed by docid hash.
  /// Shard contributions dropped (best effort); zero iff the router's
  /// answers were complete.
  uint64_t dropped_shards = 0;
};

/// Everything one query router observed, read once after the query: the
/// per-replica attribution and routing counters, beside the chain layers'
/// totals, which belong to other accounts (the DegradationReport and the
/// OverloadActivity) and so are not part of `shards`.
struct RouterActivity {
  ShardActivity shards;
  /// Summed over replicas, except breaker_opens: breakers are shared
  /// across queries, so that is the backend-wide delta since the router
  /// was minted.
  ResilienceStats resilience;
  /// Hedging summed over shards, limiter waits over replicas, and the
  /// backend's current total limit. The admission wait is not the
  /// router's to know and stays zero.
  OverloadActivity overload;
};

// ---------------------------------------------------------------------------
// ShardedBackend

/// The long-lived, service-wide half of a sharded deployment: owns the
/// topology, the per-(shard, replica) circuit breakers and adaptive
/// limiters, the per-shard hedge controllers, and the scatter thread pool
/// (num_shards() - 1 workers; the calling thread participates).
/// Short-lived ShardedTextSource routers are minted per query via
/// MakeQuerySource and share this state, so breaker trips and learned
/// limits persist across queries exactly as PR 4/5's service-wide
/// controllers did.
class ShardedBackend {
 public:
  /// Aborts (programmer error) when the topology fails Validate().
  /// `chain` is rebuilt per replica for every query source; `chain.cache`
  /// is ignored here (the cache is a logical layer above the router).
  explicit ShardedBackend(BackendTopology topology, ChainSpec chain = {});
  ~ShardedBackend();

  ShardedBackend(const ShardedBackend&) = delete;
  ShardedBackend& operator=(const ShardedBackend&) = delete;

  const BackendTopology& topology() const { return topology_; }
  const ChainSpec& chain() const { return chain_; }
  size_t num_shards() const { return topology_.shards.size(); }

  /// Shared controllers; null when the corresponding layer is disengaged.
  CircuitBreaker* breaker(size_t shard, size_t replica) const;
  AdaptiveLimiter* limiter(size_t shard, size_t replica) const;
  HedgeController* hedge(size_t shard) const;

  ThreadPool* scatter_pool() const { return scatter_pool_.get(); }

  /// Lifetime totals across every breaker / limiter (0 when disengaged).
  uint64_t breaker_opens_total() const;
  int limit_total() const;

  /// Mints a per-query router with the full chain per replica. `decorator`
  /// is the query-level execution decorator (chaos injection), applied to
  /// every replica between the topology's own replica decorator and the
  /// resilience layer. `pinned_epoch` is the corpus version the router
  /// reads: every mutable replica corpus is captured as SnapshotAt(pinned)
  /// at mint time, so a query sees ONE corpus version end to end no matter
  /// how writers race it (frozen corpora ignore the pin).
  std::unique_ptr<ShardedTextSource> MakeQuerySource(
      const std::function<std::unique_ptr<TextSource>(TextSource*)>&
          decorator = nullptr,
      uint64_t pinned_epoch = kUnpinnedEpoch) const;

  /// Mints a bare router: no chain layers, no decorators — just metering,
  /// routing and merging. Used for control-plane traffic (statistics
  /// sampling) that must not trip breakers or consume limiter permits.
  /// Mutable corpora are captured at their latest applied state.
  std::unique_ptr<ShardedTextSource> MakeBareSource(
      uint64_t pinned_epoch = kUnpinnedEpoch) const;

 private:
  BackendTopology topology_;
  ChainSpec chain_;
  std::vector<std::vector<std::unique_ptr<CircuitBreaker>>> breakers_;
  std::vector<std::vector<std::unique_ptr<AdaptiveLimiter>>> limiters_;
  std::vector<std::unique_ptr<HedgeController>> hedges_;
  std::unique_ptr<ThreadPool> scatter_pool_;
};

// ---------------------------------------------------------------------------
// ShardedTextSource

/// Per-query scatter-gather router over a ShardedBackend. See the file
/// comment for routing and metering semantics.
///
/// Thread safety: Search/Fetch are const and safe to call concurrently
/// (the stage scheduler does). set_failure_mode / SetMeter are
/// configuration — do not race them against in-flight operations.
class ShardedTextSource final : public MeteredTextSource {
 public:
  ~ShardedTextSource() override;

  Result<std::vector<std::string>> Search(
      const TextQuery& query) const override;
  Result<Document> Fetch(const std::string& docid) const override;
  size_t max_search_terms() const override;
  size_t num_documents() const override;
  int max_concurrency() const override;

  AccessMeter meter() const override {
    return active_meter_.load(std::memory_order_acquire)->Snapshot();
  }
  AtomicAccessMeter& charging_meter() const override {
    return *active_meter_.load(std::memory_order_acquire);
  }
  void SetMeter(AtomicAccessMeter* meter) override {
    active_meter_.store(meter != nullptr ? meter : &own_meter_,
                        std::memory_order_release);
  }
  void ResetMeter() override { own_meter_.Reset(); }

  /// kBestEffort lets a broadcast search drop the contribution of a shard
  /// whose every replica failed transiently (recorded in activity() and as
  /// an incomplete result); any other mode fails the logical operation.
  void set_failure_mode(FailureMode mode) { failure_mode_ = mode; }

  /// This query's whole account. Waits out in-flight hedge duplicates on
  /// every shard first, so the waste account, the replica counters and
  /// meter() are final once it returns. Per-replica rows are built for
  /// multi-shard routers only.
  RouterActivity activity() const;

  /// Which corpus version this router reads: mutable_corpus is set when
  /// any replica corpus is live; epoch is the pin (max across shards),
  /// delta_docs / visible_docs sum over replica 0 of every shard. All-zero
  /// for frozen topologies.
  CorpusPinInfo corpus_pin() const;

 private:
  friend class ShardedBackend;

  struct ReplicaRuntime;
  struct ShardRuntime;

  ShardedTextSource(
      const ShardedBackend& backend,
      const std::function<std::unique_ptr<TextSource>(TextSource*)>&
          query_decorator,
      bool bare, uint64_t pinned_epoch);

  Result<std::vector<std::string>> ScatterSearch(const TextQuery& query) const;

  const ShardedBackend& backend_;
  const uint64_t breaker_opens_at_mint_;
  std::vector<std::unique_ptr<ShardRuntime>> shards_;

  mutable AtomicAccessMeter own_meter_;
  mutable std::atomic<AtomicAccessMeter*> active_meter_{&own_meter_};

  FailureMode failure_mode_ = FailureMode::kFailFast;
  mutable std::atomic<uint64_t> broadcasts_{0};
  mutable std::atomic<uint64_t> routed_fetches_{0};
  mutable std::atomic<uint64_t> dropped_shards_{0};
};

}  // namespace textjoin

#endif  // TEXTJOIN_CONNECTOR_SHARDING_H_
