#ifndef TEXTJOIN_CORE_STATISTICS_H_
#define TEXTJOIN_CORE_STATISTICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/cost_model.h"
#include "core/federated_query.h"
#include "relational/catalog.h"
#include "relational/table_stats.h"
#include "text/searchable.h"

/// \file
/// The optimizer's statistics store (paper Section 4.2): per text-join
/// predicate selectivity and fanout (obtained by sampling, or exactly in
/// oracle mode for experiments), per text-selection match counts, and
/// relational table statistics.

namespace textjoin {

/// Statistics for a text selection predicate ('term' in field).
struct TextSelectionStats {
  double match_docs = 0.0;  ///< Documents matching the term.
  double postings = 0.0;    ///< Inverted-list postings read to evaluate it.

  bool operator==(const TextSelectionStats&) const = default;
};

/// Holds every estimate the optimizer consumes. Estimates are keyed by the
/// textual form of the predicate, so they are shared across queries (the
/// paper amortizes sampling cost this way).
///
/// The registry counts its own changes: generation() moves exactly when a
/// Set* call inserts an entry or stores a value different from the one it
/// holds, so a plan made at generation g is still the optimizer's plan for
/// the same query while generation() reads g. Setters are not
/// synchronized; generation() may be read concurrently with them.
class StatsRegistry {
 public:
  /// The number of changes so far (inserts plus value changes).
  uint64_t generation() const { return generation_.load(); }

  /// Records s_i / f_i for `column_ref in field`.
  void SetTextJoinStats(const std::string& column_ref,
                        const std::string& field, double selectivity,
                        double fanout);

  /// The recorded stats. Fails with NotFound if never set.
  Result<TextPredicateStats> GetTextJoinStats(const std::string& column_ref,
                                              const std::string& field) const;

  /// Records match count / postings for a selection term.
  void SetTextSelectionStats(const std::string& term,
                             const std::string& field, double match_docs,
                             double postings);

  Result<TextSelectionStats> GetTextSelectionStats(
      const std::string& term, const std::string& field) const;

  /// Records relational statistics for a table.
  void SetTableStats(const std::string& table_name, TableStats stats);

  Result<const TableStats*> GetTableStats(const std::string& table_name) const;

  bool HasTextJoinStats(const std::string& column_ref,
                        const std::string& field) const;

 private:
  // Selectivity/fanout only; N_i comes from table stats at use time.
  struct JoinStatsEntry {
    double selectivity;
    double fanout;

    bool operator==(const JoinStatsEntry&) const = default;
  };

  /// Stores `value` under `key`, moving the generation only when that
  /// inserts an entry or changes the stored value.
  template <typename Map>
  void Store(Map& map, typename Map::key_type key,
             typename Map::mapped_type value);

  std::atomic<uint64_t> generation_{0};
  std::map<std::pair<std::string, std::string>, JoinStatsEntry> join_stats_;
  std::map<std::pair<std::string, std::string>, TextSelectionStats>
      selection_stats_;
  std::map<std::string, TableStats> table_stats_;
};

/// Fills `registry` with *exact* statistics for every text predicate of
/// `query`, by enumerating distinct column values against the engine
/// directly (oracle mode — no metered source traffic). This mirrors the
/// paper's assumption that calibrated statistics are available to the
/// optimizer; the sampling path (connector/sampler.h) provides the
/// realistic alternative.
Status ComputeExactStats(const FederatedQuery& query, const Catalog& catalog,
                         const SearchableCorpus& corpus,
                         StatsRegistry& registry);

/// The sharded-topology overload: each selection / distinct join value is
/// probed against every shard and the counts summed (docids partition
/// disjointly, so the sums equal the single-corpus numbers — exactly so
/// when the shards evaluate exhaustively).
Status ComputeExactStats(const FederatedQuery& query, const Catalog& catalog,
                         const std::vector<const SearchableCorpus*>& shards,
                         StatsRegistry& registry);

}  // namespace textjoin

#endif  // TEXTJOIN_CORE_STATISTICS_H_
