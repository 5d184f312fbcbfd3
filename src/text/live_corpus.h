#ifndef TEXTJOIN_TEXT_LIVE_CORPUS_H_
#define TEXTJOIN_TEXT_LIVE_CORPUS_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"
#include "text/document.h"
#include "text/eval.h"
#include "text/inverted_index.h"
#include "text/postings.h"
#include "text/query.h"
#include "text/searchable.h"

/// \file
/// Live corpus mutation with snapshot-consistent reads (DESIGN.md §16).
///
/// A LiveCorpus is a SearchableCorpus that accepts inserts, updates and
/// deletes while serving queries. Every mutation is stamped with a global
/// write epoch (EpochClock) and lands as an immutable per-epoch DELTA CHUNK
/// (an InvertedIndex over the new document version, the same structure as
/// the main segment) plus a tombstone (the dying version's dead_epoch). A
/// background segment-merge pass (SegmentMergeWorker) periodically folds
/// everything into a fresh main segment and prunes the covered chunks.
///
/// Reads never touch the mutable state directly: SnapshotAt(E) captures an
/// immutable CorpusSnapshot — the corpus exactly as of epoch E — whose
/// Search/GetDocument/FindDocid run lock-free against captured shared_ptr
/// structures. Visibility at E is `born_epoch <= E < dead_epoch`; visible
/// versions are ranked densely (0..V-1) by their WRITER-ASSIGNED ordinal,
/// which is permanent per docid (updates and re-inserts reuse it), so the
/// snapshot's document numbering — and therefore result order, NOT
/// complements and the postings charge — is byte-identical to a frozen
/// TextEngine built over the same visible documents in the same order.
///
/// Torn-read freedom: a query pins ONE epoch when it starts and every stage
/// reads that snapshot; concurrent writers only ever create state at later
/// epochs, and the merge publishes an equivalent representation (the read
/// path skips chunk postings already covered by the main segment, so a
/// crash that published without pruning — or a re-merge after it — changes
/// nothing a query can observe).

namespace textjoin {

class CorpusSnapshot;

// ---------------------------------------------------------------------------
// EpochClock

/// The global write-epoch authority. Writers Reserve() an epoch, apply
/// their mutation everywhere it belongs (every replica + the cache
/// invalidation), then Publish() it. published() is the CONTIGUOUS
/// frontier: the largest epoch E such that every epoch <= E has been
/// published — so a query pinned at published() can never observe a
/// half-applied write, even when reservations complete out of order.
class EpochClock {
 public:
  /// Takes the next epoch (1, 2, ...). Must be paired with Publish().
  uint64_t Reserve();

  /// Marks `epoch` fully applied and advances the contiguous frontier.
  void Publish(uint64_t epoch);

  /// The contiguous publication frontier (0 before any write).
  uint64_t published() const {
    return published_.load(std::memory_order_acquire);
  }

  /// The highest epoch ever reserved (diagnostics / staleness reports).
  uint64_t reserved() const {
    return reserved_.load(std::memory_order_acquire);
  }

 private:
  std::mutex mu_;
  uint64_t next_ = 1;
  std::set<uint64_t> outstanding_;  ///< Reserved but not yet published.
  std::atomic<uint64_t> published_{0};
  std::atomic<uint64_t> reserved_{0};
};

// ---------------------------------------------------------------------------
// Merge machinery

/// Deterministic fault injection for the segment-merge write path — the
/// ChaosTextSource idea applied to merges. Faults model a crash at the
/// publish boundary: the recovery invariant is that queries are correct
/// before, after, and in between, and a clean re-merge is idempotent.
enum class MergeFault {
  kNone,
  /// The pass builds the new segment, then "crashes" before publishing it
  /// (the built segment is abandoned; deltas stay live).
  kAbortBeforePublish,
  /// The pass publishes the new segment but "crashes" before pruning the
  /// covered delta chunks (the read path's coverage guard makes the
  /// leftovers invisible; the next clean pass prunes them).
  kSkipPrune,
};

/// Lifetime counters of a LiveCorpus's merge activity.
struct MergeStats {
  uint64_t passes = 0;     ///< MergePass calls that found work.
  uint64_t published = 0;  ///< Passes that swapped in a new main segment.
  uint64_t aborted_before_publish = 0;  ///< kAbortBeforePublish injections.
  uint64_t published_unpruned = 0;      ///< kSkipPrune injections.
  uint64_t docs_folded = 0;    ///< Document versions newly covered by main.
  uint64_t chunks_pruned = 0;  ///< Delta chunks retired.
};

// ---------------------------------------------------------------------------
// LiveCorpus

/// A mutable document corpus serving immutable per-epoch snapshots. See
/// the file comment for the model. Thread safety: all methods are safe to
/// call concurrently; writes serialize on an internal writer lock, reads
/// take a shared lock only long enough to capture a snapshot. Callers
/// normally mutate through connector/corpus_writer.h, which owns epoch
/// reservation, ordinal assignment, replica fan-out and cache
/// invalidation; the Apply* methods below are the per-replica primitives.
class LiveCorpus final : public SearchableCorpus {
 public:
  explicit LiveCorpus(size_t max_search_terms = 70)
      : max_search_terms_(max_search_terms) {}
  LiveCorpus(const LiveCorpus&) = delete;
  LiveCorpus& operator=(const LiveCorpus&) = delete;

  // --- Seeding (epoch 0, before serving) ---

  /// Adds a document to the initial corpus (born at epoch 0). Ordinal
  /// defaults to the insertion index. Fails with AlreadyExists on a
  /// duplicate docid and must not be called once the corpus has served a
  /// snapshot or accepted a write (CHECK).
  Result<DocNum> SeedDocument(Document doc);
  Result<DocNum> SeedDocument(Document doc, uint64_t ordinal);

  // --- Mutations (per-replica primitives; epoch > 0) ---

  /// Inserts a new version of a docid that has no live version (first
  /// insert, or re-insert after delete). `ordinal` is the docid's
  /// permanent global ordinal; a re-insert must pass the same ordinal the
  /// docid had before (corpus_writer guarantees this).
  Status ApplyInsert(Document doc, uint64_t epoch, uint64_t ordinal);

  /// Replaces the live version of doc.docid: the old version dies at
  /// `epoch`, the new one is born at `epoch` with the same ordinal.
  Status ApplyUpdate(Document doc, uint64_t epoch);

  /// Tombstones the live version of `docid` at `epoch`.
  Status ApplyDelete(const std::string& docid, uint64_t epoch);

  /// The latest live version of `docid` (regardless of epoch pins), or
  /// NotFound. Used by writers to compute old-version cache invalidation.
  Result<Document> CurrentDocument(const std::string& docid) const;

  /// Whether `docid` currently has a live (undeleted) version.
  bool HasLiveDocument(const std::string& docid) const;

  /// The permanent ordinal of `docid`, or -1 if never inserted.
  int64_t OrdinalOf(const std::string& docid) const;

  // --- Snapshots ---

  /// The immutable corpus as of `epoch` (kUnpinnedEpoch = everything
  /// applied so far). Cached per epoch; cache entries at epochs >= a later
  /// write are invalidated, earlier pins stay valid forever.
  std::shared_ptr<const CorpusSnapshot> Snapshot(uint64_t epoch) const;

  // --- Segment merge ---

  /// One merge pass: folds every fully-applied document version into a
  /// fresh main segment and prunes covered delta chunks. Returns the
  /// number of document versions newly covered (0 when there was nothing
  /// to fold or the injected fault aborted the publish). Safe concurrently
  /// with writers and readers; only one pass runs at a time (serialized on
  /// an internal merge lock).
  size_t MergePass(MergeFault fault = MergeFault::kNone);

  /// Document versions (plus leftover chunks) not yet covered by the main
  /// segment — the merge worker's wake-up criterion.
  size_t PendingDeltaDocs() const;

  MergeStats merge_stats() const;

  // --- SearchableCorpus (latest-state view; see class comment) ---

  /// Search/GetDocument/FindDocid delegate to the latest snapshot. Each
  /// call is internally consistent, but a multi-operation reader wanting
  /// one corpus version across calls must hold a Snapshot() — the sharded
  /// router does exactly that, per query.
  Result<EngineSearchResult> Search(const TextQuery& query) const override;
  const Document& GetDocument(DocNum num) const override;
  Result<DocNum> FindDocid(const std::string& docid) const override;
  size_t num_documents() const override {
    return visible_count_.load(std::memory_order_acquire);
  }
  size_t max_search_terms() const override { return max_search_terms_; }

  bool mutable_corpus() const override { return true; }
  std::shared_ptr<const SearchableCorpus> SnapshotAt(
      uint64_t epoch) const override;
  CorpusPinInfo pin_info() const override;

  /// Exhaustive Boolean evaluation (sharded topologies; see eval.h). Set
  /// before serving; snapshots capture the flag.
  void set_exhaustive_eval(bool exhaustive) { exhaustive_eval_ = exhaustive; }
  bool exhaustive_eval() const { return exhaustive_eval_; }

 private:
  friend class CorpusSnapshot;

  /// One immutable document version. Content, ordinal and born_epoch never
  /// change after append; dead_epoch is written once (under the unique
  /// lock) when a later epoch kills the version. The deque never moves
  /// elements, so snapshots hold stable pointers.
  struct DocState {
    Document doc;
    uint64_t ordinal = 0;
    uint64_t born_epoch = 0;
    uint64_t dead_epoch = kUnpinnedEpoch;  ///< kUnpinnedEpoch = still live.
    DocNum self = 0;  ///< This version's index in docs_ (deque indexing is
                      ///< slow; snapshots recover version ids from here).
  };

  /// The merged main index: immutable once published, covering document
  /// versions [0, end_doc).
  struct Segment {
    InvertedIndex index;
    DocNum end_doc = 0;
  };

  /// One immutable delta: the postings of the versions appended at one
  /// epoch (the epoch-0 seed chunk covers all seeds and is mutable only
  /// during seeding). Chunks are NOT required to be epoch-ordered in
  /// chunks_ — a mirror corpus receives cross-shard ops out of epoch
  /// order — but each chunk's doc range [first_doc, end_doc) is contiguous
  /// and ascending in append order.
  struct DeltaChunk {
    uint64_t epoch = 0;
    DocNum first_doc = 0;
    DocNum end_doc = 0;
    InvertedIndex index;  ///< Keyed by version index, like the main segment.
  };

  /// One docid's permanent-ordinal directory entry. `docid` views into the
  /// first version's Document (stable: the deque never moves elements) and
  /// `versions` aims at the docid's slot in versions_ (stable: node-based
  /// map; the vector grows only under the unique lock).
  struct OrdinalSlot {
    uint64_t ordinal = 0;
    std::string_view docid;
    const std::vector<DocNum>* versions = nullptr;
  };

  /// A pending docid -> ordinal directory entry not yet folded into the
  /// base map (see dir_base_ / dir_overlay_).
  struct DocidEntry {
    std::string_view docid;
    uint64_t ordinal = 0;
  };

  /// Appends a version + its delta postings. Caller holds mu_ (unique).
  DocNum AppendVersionLocked(Document doc, uint64_t epoch, uint64_t ordinal);
  /// Logs a visibility change for incremental snapshot derivation.
  void RecordEventLocked(uint64_t epoch, uint64_t ordinal);
  /// The live version index of docid, or npos. Caller holds mu_ (either).
  size_t LiveVersionLocked(const std::string& docid) const;
  Result<DocNum> SeedLocked(Document doc, uint64_t ordinal);
  /// Builds the snapshot for `epoch`. Caller must NOT hold mu_. When the
  /// cache holds an earlier pin and the epoch change log says few docids
  /// changed since, the visible set is DERIVED from that base in
  /// O(changes) instead of walked in O(corpus). (The base is picked under
  /// mu_ — writers invalidate under it, so a cached pin E' provably
  /// reflects every write <= E'.)
  std::shared_ptr<const CorpusSnapshot> BuildSnapshot(uint64_t epoch) const;
  /// Drops cached snapshots pinned at >= epoch (including the latest-state
  /// sentinel, which sorts last).
  void InvalidateSnapshotsFrom(uint64_t epoch) const;

  const size_t max_search_terms_;
  bool exhaustive_eval_ = false;

  /// Guards every mutable member below. Writers and merge-publish take it
  /// unique; snapshot capture takes it shared.
  mutable std::shared_mutex mu_;
  std::deque<DocState> docs_;  ///< Every version ever, append-only.
  std::unordered_map<std::string, std::vector<DocNum>> versions_;
  /// Every docid ever, sorted by permanent ordinal (ties in append order).
  /// Snapshot builds walk this instead of sorting all versions per build.
  std::vector<OrdinalSlot> by_ordinal_;
  /// Immutable docid -> ordinal directory, shared with snapshots so
  /// FindDocid needs no per-snapshot hash map: a small overlay vector takes
  /// new docids (copy-on-write per insert) and folds into a fresh base map
  /// once it grows past the amortization threshold. Updates, deletes and
  /// re-inserts reuse the docid's permanent entry and leave both untouched.
  std::shared_ptr<const std::unordered_map<std::string_view, uint64_t>>
      dir_base_;
  std::shared_ptr<const std::vector<DocidEntry>> dir_overlay_;
  uint64_t max_applied_epoch_ = 0;  ///< Largest epoch applied here.
  /// Visibility change log: (epoch, permanent ordinal) per applied
  /// mutation, sorted by epoch (appends are the fast path; a sharded
  /// mirror can interleave epochs). Lets BuildSnapshot find the docids
  /// whose visibility moved between a cached base pin and a new one.
  std::vector<std::pair<uint64_t, uint64_t>> epoch_events_;
  /// Incremental derivation matches base entries by ordinal, so it needs
  /// ordinals to be docid-unique (CorpusWriter guarantees it; custom seed
  /// ordinals may not — then every build walks the full directory).
  bool ordinals_unique_ = true;
  std::shared_ptr<const Segment> main_;  ///< Null before the first merge.
  std::vector<std::shared_ptr<const DeltaChunk>> chunks_;
  std::shared_ptr<DeltaChunk> seed_chunk_;  ///< Mutable during seeding only.
  /// Set on first snapshot/write; further seeds then CHECK. Atomic (and
  /// mutable) because snapshot capture — a const path under the shared
  /// lock — also seals.
  mutable std::atomic<bool> sealed_{false};
  MergeStats merge_stats_;

  std::atomic<size_t> visible_count_{0};
  /// Bumped by every mutation and merge publish — lets Snapshot() detect
  /// that a just-built latest-state view went stale before caching it.
  std::atomic<uint64_t> write_seq_{0};

  /// Serializes merge passes (phase 1 runs outside mu_).
  mutable std::mutex merge_mu_;

  /// Per-epoch snapshot cache. A write at epoch W invalidates entries
  /// pinned at >= W (and the latest sentinel); earlier pins are immutable.
  mutable std::mutex snap_mu_;
  mutable std::map<uint64_t, std::shared_ptr<const CorpusSnapshot>>
      snap_cache_;
};

// ---------------------------------------------------------------------------
// CorpusSnapshot

/// The corpus exactly as of one epoch: a SearchableCorpus whose const
/// methods run lock-free against state captured at construction. Document
/// numbers are dense visibility ranks (0..V-1 in permanent-ordinal order);
/// posting lists are the main segment's lists tombstone-masked and merged
/// with the delta chunks up to the pinned epoch. When the pin covers the
/// whole corpus with nothing masked, lists are borrowed from the main
/// segment with zero copies (the frozen-corpus fast path).
class CorpusSnapshot final : public SearchableCorpus,
                             public std::enable_shared_from_this<CorpusSnapshot> {
 public:
  Result<EngineSearchResult> Search(const TextQuery& query) const override;
  const Document& GetDocument(DocNum num) const override;
  Result<DocNum> FindDocid(const std::string& docid) const override;
  size_t num_documents() const override { return visible_.size(); }
  size_t max_search_terms() const override { return max_search_terms_; }
  CorpusPinInfo pin_info() const override;

  uint64_t epoch() const { return epoch_; }
  /// Visible docs served from delta chunks (not covered by main).
  uint64_t delta_docs() const { return delta_docs_; }

  /// Copies of the visible documents in rank (= document number) order —
  /// feeding these to TextEngine::AddDocument builds the frozen replay
  /// corpus whose rows AND meters match this snapshot byte for byte.
  std::vector<Document> VisibleDocuments() const;

 private:
  friend class LiveCorpus;
  class MaskedLists;

  CorpusSnapshot() = default;

  /// The tombstone-masked postings of (field, token): (rank, positions)
  /// collected from the main segment and the chunks <= epoch_ and appended
  /// in rank order. Empty list when no visible doc carries the token.
  /// `token` is analyzer output (lowercase).
  BlockPostings MaskedList(std::string_view field,
                           std::string_view token) const;
  /// MaskedList memoized: repeated searches of the same term on one
  /// snapshot (the oracle-statistics path re-probes every query) pay the
  /// rebase once. Entries whose terms no changed document carries are
  /// inherited from the incremental base snapshot when no rank moved, so
  /// steady insert/update churn reuses them across epochs too.
  std::shared_ptr<const BlockPostings> MemoizedList(
      const std::string& field, const std::string& token) const;
  /// Whether any chunk <= epoch_ indexes `token` beyond main's coverage.
  bool ChunkHasToken(std::string_view field, std::string_view token) const;
  /// Ascending unique tokens matching `prefix` across main + chunks.
  std::vector<std::string> PrefixTokens(const std::string& field,
                                        const std::string& prefix) const;

  uint64_t epoch_ = 0;
  uint64_t applied_epoch_ = 0;  ///< Resolved pin (epoch_, or max applied).
  uint64_t seq_ = 0;            ///< LiveCorpus::write_seq_ at build time.
  size_t max_search_terms_ = 70;
  bool exhaustive_ = false;
  uint64_t delta_docs_ = 0;

  /// Captured structure (kept alive by shared_ptr; docs_ pointers are
  /// stable because the deque never moves elements).
  std::shared_ptr<const LiveCorpus::Segment> main_;
  std::vector<std::shared_ptr<const LiveCorpus::DeltaChunk>> chunks_;
  DocNum main_end_ = 0;  ///< Versions < main_end_ are covered by main_.

  /// rank -> version (visible docs in permanent-ordinal order).
  std::vector<const LiveCorpus::DocState*> visible_;
  /// version -> rank, kInvisible for masked versions.
  std::vector<uint32_t> rank_of_;
  static constexpr uint32_t kInvisible = ~0u;
  /// Shared docid -> permanent-ordinal directory (epoch-independent).
  /// FindDocid resolves the ordinal here, then binary-searches visible_
  /// (sorted by ordinal) — no per-snapshot hash map to build.
  std::shared_ptr<const std::unordered_map<std::string_view, uint64_t>>
      dir_base_;
  std::shared_ptr<const std::vector<LiveCorpus::DocidEntry>> dir_overlay_;

  /// Visible versions are exactly [0, V) with rank == version index — the
  /// precondition for borrowing main lists whose last doc < V.
  bool contiguous_prefix_ = false;
  /// Everything visible, fully merged, nothing masked: borrow ALL lists.
  bool identity_ = false;

  /// Masked-list memo (see MemoizedList). memo_mu_ is a leaf lock taken
  /// by const read paths.
  mutable std::mutex memo_mu_;
  mutable std::map<std::pair<std::string, std::string>,
                   std::shared_ptr<const BlockPostings>>
      block_memo_;
};

// ---------------------------------------------------------------------------
// SegmentMergeWorker

struct MergeWorkerOptions {
  /// How often the worker wakes to look for fold-able deltas (a wake with
  /// nothing pending skips its pass).
  std::chrono::milliseconds interval{2};
  /// Deterministic fault injection: pass i of the worker's lifetime takes
  /// fault_schedule[i] (kNone once exhausted).
  std::vector<MergeFault> fault_schedule;
};

/// Background thread folding sealed deltas into the main segments of a set
/// of LiveCorpus instances (all replicas of all shards, typically). Owned
/// by FederationService when Options::live.start_merge_worker is set, and
/// stopped on Drain()/destruction.
class SegmentMergeWorker {
 public:
  SegmentMergeWorker(std::vector<LiveCorpus*> corpora,
                     MergeWorkerOptions options = {});
  ~SegmentMergeWorker();

  SegmentMergeWorker(const SegmentMergeWorker&) = delete;
  SegmentMergeWorker& operator=(const SegmentMergeWorker&) = delete;

  /// Starts the background thread (idempotent).
  void Start();
  /// Stops and joins it (idempotent; safe without Start()).
  void Stop();

  /// One synchronous pass over every corpus (also used by the background
  /// thread). Consumes the fault schedule; returns docs folded.
  size_t RunOnePass();

  bool running() const;
  uint64_t passes() const;

 private:
  std::vector<LiveCorpus*> corpora_;
  const MergeWorkerOptions options_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  bool running_ = false;
  size_t fault_cursor_ = 0;
  uint64_t passes_ = 0;
  std::thread thread_;
};

}  // namespace textjoin

#endif  // TEXTJOIN_TEXT_LIVE_CORPUS_H_
