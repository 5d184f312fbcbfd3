#ifndef TEXTJOIN_CONNECTOR_CORPUS_WRITER_H_
#define TEXTJOIN_CONNECTOR_CORPUS_WRITER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "connector/sharding.h"
#include "connector/text_cache.h"
#include "text/document.h"
#include "text/live_corpus.h"

/// \file
/// The write path of a live sharded corpus (DESIGN.md §16).
///
/// A CorpusWriter is the single mutation front door for a topology of
/// LiveCorpus replicas. Each write:
///
///   1. takes the owning shard's writer lock (per-docid epochs are
///      therefore strictly ascending — only the newest version of a docid
///      can ever be live),
///   2. validates against replica 0 (insert needs no live version, update
///      and delete need one),
///   3. reserves a global epoch W from the EpochClock,
///   4. computes the surgical cache invalidation — the union of the dying
///      and the incoming version's qualified terms, the docid, and
///      whether the document universe changed (insert/delete),
///   5. applies the mutation to EVERY replica of the shard (plus the
///      optional unsharded whole-corpus mirror),
///   6. pushes the invalidation into the TextCache, and only then
///   7. publishes W.
///
/// Publishing last is the consistency linchpin: a query admitted at
/// published() can only pin epochs whose replicas AND cache state are
/// fully settled, so it never sees a half-applied write no matter how it
/// interleaves with steps 3-6 of concurrent writers.
///
/// The writer also owns the permanent docid -> ordinal map. Ordinals are
/// assigned once at first insert (or seed) and reused by updates and
/// re-inserts, which keeps every snapshot's document numbering — and the
/// scattered-search merge order — stable across a document's lifetime.
/// OrdinalFn()/PartitionFn() plug straight into
/// BackendTopology::global_ordinal / partitioner.

namespace textjoin {

/// Lifetime mutation counters.
struct WriterStats {
  uint64_t inserts = 0;
  uint64_t updates = 0;
  uint64_t deletes = 0;
  uint64_t rejected = 0;  ///< Validation failures (no epoch consumed).
  uint64_t last_epoch = 0;

  std::string ToString() const;
};

class CorpusWriter {
 public:
  /// `shards[s]` holds the replica corpora of shard s; all replicas of a
  /// shard receive identical mutations. `clock` is required and must
  /// outlive the writer. `cache` (optional) receives surgical
  /// invalidations; `mirror` (optional) is an unsharded corpus that
  /// receives every mutation — mutation_service_test freezes its snapshots
  /// as the replay reference for sharded outcomes.
  CorpusWriter(std::vector<std::vector<LiveCorpus*>> shards,
               EpochClock* clock, std::shared_ptr<TextCache> cache = nullptr,
               LiveCorpus* mirror = nullptr);

  CorpusWriter(const CorpusWriter&) = delete;
  CorpusWriter& operator=(const CorpusWriter&) = delete;

  // --- Seeding (epoch 0, before the service starts) ---

  /// Routes `doc` to its shard and seeds it on every replica (and the
  /// mirror), assigning the next ordinal. Fails on duplicate docids.
  Status Seed(Document doc);

  // --- Serving-time mutations ---

  /// Each returns the epoch the mutation committed at.
  Result<uint64_t> Insert(Document doc);
  Result<uint64_t> Update(Document doc);
  Result<uint64_t> Delete(const std::string& docid);

  // --- Topology plumbing ---

  size_t num_shards() const { return shards_.size(); }
  size_t ShardOf(const std::string& docid) const {
    return ShardForDocid(docid, shards_.size());
  }

  /// Docid -> owning shard, for BackendTopology::partitioner.
  std::function<size_t(const std::string&)> PartitionFn() const;
  /// Docid -> permanent global ordinal (-1 if never inserted), for
  /// BackendTopology::global_ordinal. Holds the ordinal map alive.
  std::function<int64_t(const std::string&)> OrdinalFn() const;

  /// Every distinct replica corpus, for SegmentMergeWorker (includes the
  /// mirror when present).
  std::vector<LiveCorpus*> AllCorpora() const;

  LiveCorpus* mirror() const { return mirror_; }

  WriterStats stats() const;

 private:
  /// Permanent docid -> ordinal assignment, shared with OrdinalFn
  /// closures (shared_ptr: the topology may outlive the writer in tests).
  struct OrdinalMap {
    mutable std::shared_mutex mu;
    std::unordered_map<std::string, uint64_t> ordinal_of;
    uint64_t next = 0;
  };

  enum class Op { kInsert, kUpdate, kDelete };

  Result<uint64_t> Mutate(Op op, Document doc, const std::string& docid);

  std::vector<std::vector<LiveCorpus*>> shards_;
  EpochClock* const clock_;
  std::shared_ptr<TextCache> cache_;
  LiveCorpus* const mirror_;

  std::shared_ptr<OrdinalMap> ordinals_;

  /// One writer lock per shard: writes to the same docid serialize (it
  /// always hashes to the same shard), writes to different shards overlap.
  std::vector<std::unique_ptr<std::mutex>> shard_mu_;

  mutable std::mutex stats_mu_;
  WriterStats stats_;
};

}  // namespace textjoin

#endif  // TEXTJOIN_CONNECTOR_CORPUS_WRITER_H_
