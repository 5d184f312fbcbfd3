#ifndef TEXTJOIN_CORE_STATISTICS_H_
#define TEXTJOIN_CORE_STATISTICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "connector/text_source.h"
#include "core/cost_model.h"
#include "core/federated_query.h"
#include "relational/catalog.h"
#include "relational/table.h"
#include "relational/table_stats.h"
#include "text/searchable.h"

/// \file
/// The optimizer's statistics (paper Section 4.2), held in a StatsRegistry:
/// per text-join predicate selectivity s_i and fanout f_i, per text
/// selection match counts, and relational table statistics. One pass
/// measures them for a query: tables, then text-join predicates (a column
/// is resolved through the query relation its qualifier names, and one
/// without string values gets s = f = 0), then text selections. Its two
/// providers differ only in how they measure a join column or a term:
///   - exact (ComputeExactStats, the experiments' calibrated "oracle"):
///     unmetered engine searches over every distinct value; it re-measures
///     every key of the query on each pass;
///   - sampled (ComputeSampledStats, the paper's method): metered searches
///     through a text source over a seeded sample; it measures only the keys
///     the registry lacks, amortizing sampling across queries.

namespace textjoin {

/// Statistics for a text selection predicate ('term' in field).
struct TextSelectionStats {
  double match_docs = 0.0;  ///< Documents matching the term.
  double postings = 0.0;    ///< Inverted-list postings read to evaluate it.

  bool operator==(const TextSelectionStats&) const = default;
};

/// Holds every estimate the optimizer consumes, shared across queries (the
/// paper amortizes sampling cost this way): text-join statistics keyed by
/// the table column and field (ResolveTextJoinColumn's key, whatever alias
/// the query gives the table), selection statistics by term and field, and
/// table statistics by table name. Keys are never erased.
///
/// The registry counts its own changes: generation() moves exactly when a
/// Set* call stores a value different from the one a key already holds.
/// Inserting a new key does not move it: the enumerator fails on a missing
/// key, so every key a plan read existed when the plan was made, and a plan
/// made at generation g is still the optimizer's plan for the same query
/// while generation() reads g. Setters are not synchronized; generation()
/// may be read concurrently with them.
class StatsRegistry {
 public:
  /// The number of stored values changed so far.
  uint64_t generation() const { return generation_.load(); }

  /// Records s_i / f_i for `column in field`, `column` a table column
  /// ("student.name").
  void SetTextJoinStats(const std::string& column, const std::string& field,
                        double selectivity, double fanout);

  /// The recorded stats. Fails with NotFound if never set.
  Result<TextPredicateStats> GetTextJoinStats(const std::string& column,
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

 private:
  // Selectivity/fanout only; N_i comes from table stats at use time.
  struct JoinStatsEntry {
    double selectivity;
    double fanout;

    bool operator==(const JoinStatsEntry&) const = default;
  };

  /// Stores `value` under `key`, moving the generation only when that
  /// changes a value the key already holds.
  template <typename Map>
  void Store(Map& map, typename Map::key_type key,
             typename Map::mapped_type value);

  std::atomic<uint64_t> generation_{0};
  std::map<std::pair<std::string, std::string>, JoinStatsEntry> join_stats_;
  std::map<std::pair<std::string, std::string>, TextSelectionStats>
      selection_stats_;
  std::map<std::string, TableStats> table_stats_;
};

/// A text join's column resolved through the query relation its qualifier
/// names: the catalog table, the column's index in it, and the registry key
/// of its statistics, "<table>.<column>" in the catalog's spelling. So
/// `s.name` keys "student.name" in a query over `student s` and
/// "faculty.name" in one over `faculty s`.
struct TextJoinColumn {
  const Table* table = nullptr;
  size_t column = 0;
  std::string key;
};

/// Resolves `column_ref`, a text join's column of `query`. Fails with
/// InvalidArgument when it is unqualified and NotFound when its qualifier
/// names no relation of the query or the column is not the table's.
Result<TextJoinColumn> ResolveTextJoinColumn(const FederatedQuery& query,
                                             const Catalog& catalog,
                                             const std::string& column_ref);

/// Runs the statistics pass with the exact provider over one corpus, for
/// every key of `query`. No metered traffic.
Status ComputeExactStats(const FederatedQuery& query, const Catalog& catalog,
                         const SearchableCorpus& corpus,
                         StatsRegistry& registry);

/// The sharded overload: each selection term and distinct join value is
/// searched on every shard and the counts summed (docids partition
/// disjointly, so the sums equal the single-corpus numbers — exactly so
/// when the shards evaluate exhaustively).
Status ComputeExactStats(const FederatedQuery& query, const Catalog& catalog,
                         const std::vector<const SearchableCorpus*>& shards,
                         StatsRegistry& registry);

/// Runs the statistics pass with the sampled provider, for the keys of
/// `query` that `registry` lacks. A join column is measured on up to
/// `sample_size` of its distinct values, drawn with `rng`; a selection term
/// by one search, whose result size stands in for its postings. `source` is
/// called at most once, when the pass first needs a search; every search of
/// the pass goes to (and is charged by) the source it returns.
Status ComputeSampledStats(const FederatedQuery& query,
                           const Catalog& catalog,
                           std::function<TextSource&()> source,
                           size_t sample_size, Rng& rng,
                           StatsRegistry& registry);

/// Estimated statistics for one text join predicate `column in field`.
struct PredicateStatsEstimate {
  /// s_i — probability that a term drawn from the column matches at least
  /// one document in the field.
  double selectivity = 0.0;
  /// f_i — unconditional mean number of documents a term from the column
  /// matches (zero-matching terms included), so that the expected result
  /// size of n single-term searches is n * fanout.
  double fanout = 0.0;
  /// Number of distinct column values actually probed.
  size_t sample_size = 0;
};

/// The sampled provider's measurement of one column, outside a pass:
/// samples up to `sample_size` distinct values of column `column_index` of
/// `table`, issues one short-form search per sampled term against `field`
/// of `source`, and returns the estimates. Fails with OutOfRange for a
/// column index past the schema and InvalidArgument for a column with no
/// string values. Charges go to `source`'s active meter; redirect it (e.g.
/// ScopedMeter) to account for sampling separately.
Result<PredicateStatsEstimate> EstimatePredicateStats(
    const Table& table, size_t column_index, TextSource& source,
    const std::string& field, size_t sample_size, Rng& rng);

}  // namespace textjoin

#endif  // TEXTJOIN_CORE_STATISTICS_H_
