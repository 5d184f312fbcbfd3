#ifndef TEXTJOIN_CONNECTOR_TEXT_CACHE_H_
#define TEXTJOIN_CONNECTOR_TEXT_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "common/cancel.h"
#include "common/tenant.h"
#include "connector/cost_meter.h"
#include "connector/text_source.h"
#include "text/document.h"
#include "text/query.h"
#include "text/searchable.h"

/// \file
/// Cross-query caching at the loose-integration boundary.
///
/// The paper's probing methods (Section 3.3) cache probe outcomes within
/// one query; under the ROADMAP's heavy-traffic setting the same searches
/// and retrievals recur ACROSS queries, each re-paying c_i + c_p + c_s (or
/// c_l). This layer holds three cross-query stores under one LRU byte
/// budget:
///
///  - search results, keyed on TextQuery::CanonicalKey() so conjunct /
///    disjunct reorderings and duplications of the same Boolean query share
///    one entry;
///  - long-form documents by docid;
///  - probe outcomes (the Section 3.3 cache promoted to session scope):
///    whether a probe query matched anything, keyed on the probe query's
///    canonical key — sound across queries because the key captures the
///    whole probe expression, selections included.
///
/// An entry leaves the store by eviction or by one invalidation route
/// (DESIGN.md §16): the CorpusWriter calls ApplyWrite for every write to a
/// live corpus, with the write's epoch, the qualified terms of the old and
/// new document versions, and the docid. The cache erases exactly the
/// resident entries the write can affect (search/probe entries whose
/// TermSignature intersects the write terms, matches one of its prefixes,
/// or is universe-sensitive when the document universe changed; document
/// entries for that docid) and leaves everything else resident. A frozen
/// corpus never changes while it is served, so nothing else invalidates.
/// Queries pinned at a snapshot epoch (text/live_corpus.h) pass the pin to
/// every lookup: an entry admitted after a write at epoch W carries
/// valid_from = W, a lookup pinned at E < W misses it, and an insert from
/// a query pinned before the latest write is rejected (stale_rejects) so
/// an old pin can never publish over fresher state. Admission is
/// cost-model-aware: an entry is admitted only when the modeled seconds it
/// saves per hit (c_i + c_s·|result| for a search, c_l for a document, c_i
/// for a probe) beat its modeled bookkeeping cost.
///
/// Searches and fetches share one operation protocol (Begin / Finish /
/// Wait). In-flight request coalescing makes N concurrent identical
/// operations at one pin issue ONE upstream call (stampede suppression):
/// followers block on the leader's flight and receive a copy of its final
/// result — including the leader's retries when a ResilientTextSource sits
/// below, so coalesced requests never double-retry and never touch the
/// circuit breaker themselves. Flights are per (key, pin), so queries at
/// different corpus versions never share an upstream result.
///
/// Layering (see DESIGN.md §10): the CachingTextSource decorator goes
/// OUTERMOST — above the router, hedging, the limiter, resilience, chaos
/// and the meter — so a hit skips all of them. The meter keeps counting
/// upstream calls actually made; what the cache absorbed is reported
/// separately, per query in CacheActivity and per pipeline stage in the
/// stage counters that EXPLAIN ANALYZE's "| cache" lines sum.
///
/// Multi-tenant partitioning (DESIGN.md §15): with `partition_by_tenant`
/// set, every resident entry belongs to the partition of the tenant that
/// inserted it, and eviction always takes from the partition most over its
/// WEIGHTED share of the byte budget — so one tenant churning misses can
/// only churn its own share, never wash out another tenant's working set.
/// Lookups stay global (a hit on another tenant's entry is still a hit —
/// shared corpora are the common case; isolation is of BUDGET, not data).
/// Within a partition, `protected_fraction` > 0 turns the plain LRU into a
/// two-segment SLRU: inserts land in probation, only a repeat hit promotes
/// into the protected segment, and eviction drains probation first — so a
/// one-pass scan (each key touched once) cannot displace entries that have
/// proven reuse. Both knobs default OFF, reproducing the single-LRU
/// behavior exactly.

namespace textjoin {

/// Tuning knobs for a TextCache. Defaults cache every search, document and
/// probe outcome that the cost model (the default CostParams) says is
/// worth keeping, under a 64 MiB budget.
struct CacheOptions {
  size_t byte_budget = 64ull << 20;  ///< Shared across all three stores.
  /// Largest admissible entry; 0 means byte_budget / 8. An entry bigger
  /// than this is rejected outright (it would evict too much).
  size_t max_entry_bytes = 0;
  /// Admit only entries whose modeled per-hit saving (minus bookkeeping)
  /// is at least this many simulated seconds. The default 0 admits any
  /// entry that saves more than it costs to keep.
  double min_saving_seconds = 0.0;

  /// Partition the byte budget by tenant (DESIGN.md §15). Off (default),
  /// every tenant shares one partition and behavior is byte-identical to
  /// the pre-tenant cache.
  bool partition_by_tenant = false;
  /// Fraction of a partition's weighted share reserved for its SLRU
  /// protected segment (entries with a proven repeat hit). 0 (default)
  /// disables the split: the partition is a plain LRU.
  double protected_fraction = 0.0;
  /// Weighted shares of the byte budget; tenants not listed weigh 1.
  /// Under eviction pressure the partition most over bytes/weight loses
  /// entries first.
  std::map<TenantId, double> tenant_weights;

  size_t EffectiveMaxEntryBytes() const {
    return max_entry_bytes != 0 ? max_entry_bytes : byte_budget / 8;
  }
};

// ---------------------------------------------------------------------------
// Surgical invalidation (live corpora, DESIGN.md §16)

/// The write-relevance fingerprint of a cached search or probe entry: the
/// qualified terms and prefixes the query reads, plus whether its result
/// depends on the whole document universe (NOT complements). A write
/// invalidates the entry iff it touches one of these. Qualified form is
/// `field + '\x1f' + token` (analyzer-lowercased), matching
/// WriteTermsOfDocument.
struct TermSignature {
  std::vector<std::string> terms;     ///< Sorted, unique.
  std::vector<std::string> prefixes;  ///< Truncated searches; sorted, unique.
  /// True when the query contains NOT: any insert/delete changes its
  /// complement, whatever terms the write touches.
  bool universe_sensitive = false;
};

/// Computes the signature of a search/probe query (walks the AST; terms
/// are analyzer-tokenized so phrase words match document tokens).
TermSignature SignatureOfQuery(const TextQuery& query);

/// The qualified terms (`field + '\x1f' + token`, sorted, unique) of every
/// token in `doc` — the write-side half of the signature match.
std::vector<std::string> WriteTermsOfDocument(const Document& doc);

/// One corpus write, as the cache needs to see it: computed by
/// CorpusWriter BEFORE the write's epoch publishes, so no query pinned at
/// or after `epoch` can race a stale entry back in.
struct WriteInvalidation {
  uint64_t epoch = 0;
  /// Union of the dying and the new document version's qualified terms.
  std::vector<std::string> terms;
  std::vector<std::string> docids;  ///< Docids whose long form changed.
  /// True for inserts and deletes (the visible-document universe changed,
  /// so NOT-bearing queries are affected regardless of terms).
  bool universe_changed = false;
};

/// Per-partition (per-tenant) counters inside CacheStats.
struct CachePartitionStats {
  size_t bytes = 0;            ///< Resident bytes (both segments).
  size_t protected_bytes = 0;  ///< Resident bytes in the protected segment.
  size_t entries = 0;
  uint64_t insertions = 0;
  uint64_t evictions = 0;  ///< Entries THIS partition lost to pressure.
  uint64_t hits = 0;       ///< Hits on entries this partition owns.
};

/// Global counters of one TextCache (all sessions sharing it).
struct CacheStats {
  uint64_t search_hits = 0;
  uint64_t search_misses = 0;
  uint64_t fetch_hits = 0;
  uint64_t fetch_misses = 0;
  uint64_t probe_hits = 0;
  uint64_t probe_misses = 0;
  uint64_t coalesced = 0;          ///< Operations served by another's flight.
  uint64_t insertions = 0;
  uint64_t admission_rejects = 0;  ///< Entries the savings model refused.
  /// Inserts from a query pinned before the latest write.
  uint64_t stale_rejects = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;  ///< ApplyWrite calls (corpus writes seen).
  /// Entries erased by ApplyWrite because a write provably affected them.
  uint64_t surgical_invalidations = 0;
  size_t bytes = 0;
  size_t entries = 0;
  /// Per-tenant partition breakdown; a single "" entry when partitioning
  /// is off. Keyed by partition id (= tenant id).
  std::map<TenantId, CachePartitionStats> partitions;
};

/// Per-query view of cache traffic, snapshotted from one CachingTextSource
/// instance (one instance serves one FederationService::Run call).
struct CacheActivity {
  uint64_t search_hits = 0;
  uint64_t search_misses = 0;
  uint64_t fetch_hits = 0;
  uint64_t fetch_misses = 0;
  uint64_t probe_hits = 0;   ///< Session probe outcomes reused.
  uint64_t coalesced = 0;    ///< Served by waiting on another's flight.

  uint64_t TotalHits() const { return search_hits + fetch_hits + probe_hits; }
  bool Empty() const {
    return search_hits == 0 && search_misses == 0 && fetch_hits == 0 &&
           fetch_misses == 0 && probe_hits == 0 && coalesced == 0;
  }
  /// "search 2/5 fetch 0/3 probe 1 coalesced 0" (hits/lookups).
  std::string ToString() const;
};

/// The shared store: LRU over search/document/probe entries under one byte
/// budget, write invalidation, cost-model admission, and the coalescing
/// flight table. All methods are thread-safe (one internal mutex; waiting
/// on a flight blocks outside it). Shareable across any number of
/// CachingTextSource instances and sessions.
class TextCache {
 public:
  /// A search's result. Searches and fetches are the two coalescing
  /// operations, named by their result types: Begin<Docids> looks up a
  /// search by canonical key, Begin<Document> a fetch by docid.
  using Docids = std::vector<std::string>;

  explicit TextCache(CacheOptions options = CacheOptions());

  TextCache(const TextCache&) = delete;
  TextCache& operator=(const TextCache&) = delete;

  /// One in-flight upstream operation that followers wait on, created when
  /// the first follower joins. The leader publishes exactly once; the
  /// result is copied out per waiter. `abandoned` marks a flight whose
  /// leader was cancelled before producing a usable result: followers must
  /// NOT inherit the leader's kCancelled — they re-enter Begin and one of
  /// them takes over leadership.
  template <typename T>
  struct Flight {
    std::mutex m;
    std::condition_variable cv;
    bool done = false;
    bool abandoned = false;
    std::optional<Result<T>> result;  ///< Set when done, unless abandoned.
  };

  /// The atomically-taken decision for one lookup. Exactly one of three
  /// shapes: `cached` set (hit); `leader` true (perform the upstream call,
  /// then Finish); `flight` set (follower: Wait on it).
  template <typename T>
  struct Ticket {
    std::optional<T> cached;
    bool leader = false;
    std::shared_ptr<Flight<T>> flight;
    // What a leader's Finish admits under.
    std::string key;  ///< The kind-tagged entry key.
    uint64_t pinned = kUnpinnedEpoch;
    TenantId tenant;  ///< Partition the result is charged to.
  };

  /// `key` is the search's canonical key (T = Docids) or the docid
  /// (T = Document). `pinned` is the caller's corpus snapshot epoch
  /// (kUnpinnedEpoch for frozen corpora): a resident entry hits only when
  /// valid at that pin, and a miss joins or opens the flight for
  /// (key, pin).
  template <typename T>
  Ticket<T> Begin(const std::string& key, const TenantId& tenant = TenantId(),
                  uint64_t pinned = kUnpinnedEpoch);
  /// Publishes a leader's result: admits it into the store (success only,
  /// and only if no write newer than the pin landed meanwhile) and wakes
  /// the followers, if any joined. Must be called exactly once per leader
  /// ticket, on success AND failure — including cancellation, where
  /// `abandoned` must be true so waiting followers retake leadership
  /// instead of inheriting the leader's kCancelled. `signature` is the
  /// search's SignatureOfQuery; fetches pass an empty one (writes reach
  /// document entries by docid).
  template <typename T>
  void Finish(Ticket<T>& ticket, const Result<T>& result,
              TermSignature signature, bool abandoned = false);
  /// A follower's wait for the leader's published result. Returns nullopt
  /// when the leader abandoned the flight (the caller should re-enter
  /// Begin, possibly becoming the new leader), or the follower's own
  /// cancellation status when `token` fires first.
  template <typename T>
  static std::optional<Result<T>> Wait(
      const Ticket<T>& ticket, const CancelToken& token = CancelToken());

  /// Probe outcomes (no coalescing: probes already dedup per query, and
  /// the outcome is one bit). Lookup returns whether the probe query
  /// matched anything, if known at `pinned`.
  std::optional<bool> LookupProbe(const std::string& canonical_key,
                                  uint64_t pinned = kUnpinnedEpoch);
  /// Records a probe outcome under the same admission and pin rules as
  /// Finish; `signature` is the probe's SignatureOfQuery.
  void InsertProbe(const std::string& canonical_key, bool matched,
                   TermSignature signature,
                   const TenantId& tenant = TenantId(),
                   uint64_t pinned = kUnpinnedEpoch);

  /// The one invalidation route, for one corpus write: erases exactly the
  /// resident entries the write can affect (see WriteInvalidation) and
  /// raises the write floor — subsequent admissions carry
  /// valid_from = write.epoch, and inserts from queries pinned before it
  /// are rejected. Must be called BEFORE the write's epoch publishes.
  void ApplyWrite(const WriteInvalidation& write);

  CacheStats Stats() const;

 private:
  /// One resident entry; the value's alternative is its kind: a search's
  /// docids, a long-form document, or a probe outcome.
  struct Entry {
    std::string key;  ///< Kind-tagged ('s'/'d'/'p') key.
    std::variant<Docids, Document, bool> value;
    size_t bytes = 0;
    /// A lookup pinned at E hits only when E >= valid_from (set to the
    /// write floor at admission; kUnpinnedEpoch pins always hit).
    uint64_t valid_from = 0;
    /// Surgical-invalidation fingerprint; empty for documents.
    TermSignature signature;
  };
  using Lru = std::list<Entry>;

  /// One tenant's slice of the store: a two-segment SLRU (front = most
  /// recent in both lists). With protected_fraction 0 every entry lives in
  /// `probation` and the partition is a plain LRU.
  struct Partition {
    double weight = 1.0;
    Lru probation;    ///< Inserts and demotions land here.
    Lru protected_q;  ///< Entries promoted by a repeat hit.
    size_t probation_bytes = 0;
    size_t protected_bytes = 0;
    CachePartitionStats stats;  ///< bytes/entries filled in on snapshot.
    size_t bytes() const { return probation_bytes + protected_bytes; }
  };
  /// Where one resident entry lives; the global index maps key -> Slot so
  /// lookups stay partition-blind (cross-tenant hits allowed). Index keys
  /// view the entry's own key (list nodes never move), so erase an entry's
  /// index slot before its list node.
  struct Slot {
    Partition* owner = nullptr;  ///< partitions_ nodes never move either.
    bool in_protected = false;
    Lru::iterator it;
  };
  using Index = std::unordered_map<std::string_view, Slot>;

  /// Flights by (entry key, pin). The order is transparent so Finish finds
  /// a flight by a view of the ticket's key. Each value is the Flight<T>
  /// of the key's kind, null until a follower joins.
  using FlightId = std::pair<std::string_view, uint64_t>;
  struct FlightOrder {
    using is_transparent = void;
    static FlightId View(const std::pair<std::string, uint64_t>& id) {
      return {id.first, id.second};
    }
    static FlightId View(const FlightId& id) { return id; }
    template <typename A, typename B>
    bool operator()(const A& a, const B& b) const {
      return View(a) < View(b);
    }
  };
  using FlightTable = std::map<std::pair<std::string, uint64_t>,
                               std::shared_ptr<void>, FlightOrder>;

  /// Modeled simulated seconds one hit on this entry saves.
  static double ModeledSaving(const Entry& entry);
  /// The partition `tenant`'s insertions are charged to (the one shared
  /// partition "" unless partitioning is on).
  Partition& PartitionFor(const TenantId& tenant);
  /// Protected-segment byte reserve of `part` under the current weighted
  /// shares; 0 when protected_fraction is 0.
  size_t ProtectedCapacityLocked(const Partition& part) const;
  /// The resident entry under `key` if it is valid at `pinned`, after hit
  /// bookkeeping; null otherwise (pin-invisible entries stay resident for
  /// fresher queries).
  const Entry* FindLocked(const std::string& key, uint64_t pinned);
  /// Hit bookkeeping: recency promotion, and probation -> protected when
  /// the SLRU split is on (demoting the protected tail as needed).
  void TouchLocked(Slot& slot);
  /// Unlinks one resident entry (bytes, segment list, index, signature
  /// reverse maps).
  void EraseSlotLocked(Index::iterator it);
  /// Inserts/refreshes under the admission policy, charging `tenant`'s
  /// partition. `pinned` is the inserting query's snapshot pin: inserts
  /// pinned before the write floor are rejected. Caller holds mu_.
  void AdmitLocked(Entry entry, const TenantId& tenant, uint64_t pinned);
  /// Evicts until under budget, always from the partition most over its
  /// weighted share, probation tail first.
  void EvictToBudgetLocked();
  /// Adds / removes `entry` in the signature reverse maps.
  void RegisterSignatureLocked(const Entry& entry);
  void UnregisterSignatureLocked(const Entry& entry);

  const CacheOptions options_;

  mutable std::mutex mu_;
  std::map<TenantId, Partition> partitions_;
  Index index_;
  FlightTable flights_;
  size_t bytes_ = 0;
  /// Epoch of the latest ApplyWrite; admissions stamp it as valid_from.
  uint64_t last_write_epoch_ = 0;
  /// Signature reverse maps over resident entries' keys (views, like the
  /// index): qualified term -> keys, (qualified prefix, key) pairs ordered
  /// for range scans, and universe-sensitive keys.
  std::unordered_map<std::string, std::set<std::string_view>> keys_by_term_;
  std::set<std::pair<std::string, std::string_view>> prefix_keys_;
  std::set<std::string_view> universe_keys_;
  CacheStats stats_;  ///< bytes/entries filled in on snapshot.
};

/// The decorator: consults a (possibly shared) TextCache before
/// delegating. Place OUTERMOST in the source chain — above resilience —
/// so hits bypass retries, the breaker and the meter, and a coalesced
/// miss's single upstream call carries the leader's retries for everyone.
///
/// Thread-safe like every TextSource; per-instance traffic counters are
/// relaxed atomics, so activity() snapshots are exact once the operations
/// counted have completed (the same contract as AtomicAccessMeter).
class CachingTextSource final : public TextSourceDecorator {
 public:
  /// How one operation was served — used by the pipeline scheduler to
  /// attribute stage counters (a kHit charges cache counters, not source
  /// counters, mirroring what the meter saw).
  enum class Outcome { kMiss, kHit, kCoalesced };

  /// `inner` must outlive this object; `cache` must be non-null. `tenant`
  /// is the partition this query's insertions are charged to (empty = the
  /// default tenant); lookups can still hit any tenant's entries.
  /// `pinned_epoch` is the query's corpus snapshot pin (kUnpinnedEpoch for
  /// frozen corpora): it gates which resident entries may hit, scopes
  /// coalescing to same-pin queries, and marks this query's insertions
  /// stale when a newer write already landed.
  CachingTextSource(TextSource* inner, std::shared_ptr<TextCache> cache,
                    TenantId tenant = TenantId(),
                    uint64_t pinned_epoch = kUnpinnedEpoch);

  Result<std::vector<std::string>> Search(
      const TextQuery& query) const override;
  Result<Document> Fetch(const std::string& docid) const override;

  /// Search/Fetch variants reporting how the operation was served.
  Result<std::vector<std::string>> SearchWithOutcome(const TextQuery& query,
                                                     Outcome* outcome) const;
  Result<Document> FetchWithOutcome(const std::string& docid,
                                    Outcome* outcome) const;

  /// Session-scope probe outcomes (paper Section 3.3 across queries):
  /// BeginProbe returns the outcome an earlier query recorded for `probe`,
  /// if one is valid at this query's pin; RecordProbe stores the outcome
  /// this query observed.
  std::optional<bool> BeginProbe(const TextQuery& probe) const;
  void RecordProbe(const TextQuery& probe, bool matched) const;
  /// Counts one reuse of a session probe outcome (the consumer skipped an
  /// upstream operation because of it).
  void NoteProbeHit() const;

  /// Per-instance traffic snapshot (one instance = one query execution in
  /// FederationService, so this is the per-query cache account).
  CacheActivity activity() const;

 private:
  struct Traffic {
    std::atomic<uint64_t> hits{0};
    std::atomic<uint64_t> misses{0};
  };

  /// The one lookup loop behind SearchWithOutcome and FetchWithOutcome:
  /// `upstream()` performs the operation on a miss, and `signature()`
  /// computes the successful result's TermSignature.
  template <typename T, typename Upstream, typename Signature>
  Result<T> Serve(const std::string& key, Traffic& traffic,
                  const Upstream& upstream, const Signature& signature,
                  Outcome* outcome) const;

  std::shared_ptr<TextCache> cache_;
  TenantId tenant_;
  uint64_t pinned_epoch_ = kUnpinnedEpoch;
  mutable Traffic search_;
  mutable Traffic fetch_;
  mutable std::atomic<uint64_t> probe_hits_{0};
  mutable std::atomic<uint64_t> coalesced_{0};
};

}  // namespace textjoin

#endif  // TEXTJOIN_CONNECTOR_TEXT_CACHE_H_
