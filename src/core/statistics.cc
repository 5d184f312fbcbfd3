#include "core/statistics.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "text/query.h"

namespace textjoin {

template <typename Map>
void StatsRegistry::Store(Map& map, typename Map::key_type key,
                          typename Map::mapped_type value) {
  auto it = map.find(key);
  if (it == map.end()) {
    map.emplace(std::move(key), std::move(value));
    return;
  }
  if (it->second == value) return;
  it->second = std::move(value);
  ++generation_;
}

void StatsRegistry::SetTextJoinStats(const std::string& column,
                                     const std::string& field,
                                     double selectivity, double fanout) {
  Store(join_stats_, {column, field}, JoinStatsEntry{selectivity, fanout});
}

Result<TextPredicateStats> StatsRegistry::GetTextJoinStats(
    const std::string& column, const std::string& field) const {
  auto it = join_stats_.find({column, field});
  if (it == join_stats_.end()) {
    return Status::NotFound("no statistics for '" + column + " in " + field +
                            "'");
  }
  TextPredicateStats stats;
  stats.selectivity = it->second.selectivity;
  stats.fanout = it->second.fanout;
  stats.num_distinct = 0.0;  // filled by the caller from table stats
  return stats;
}

void StatsRegistry::SetTextSelectionStats(const std::string& term,
                                          const std::string& field,
                                          double match_docs,
                                          double postings) {
  Store(selection_stats_, {term, field},
        TextSelectionStats{match_docs, postings});
}

Result<TextSelectionStats> StatsRegistry::GetTextSelectionStats(
    const std::string& term, const std::string& field) const {
  auto it = selection_stats_.find({term, field});
  if (it == selection_stats_.end()) {
    return Status::NotFound("no statistics for selection '" + term + "' in " +
                            field);
  }
  return it->second;
}

void StatsRegistry::SetTableStats(const std::string& table_name,
                                  TableStats stats) {
  Store(table_stats_, table_name, std::move(stats));
}

Result<const TableStats*> StatsRegistry::GetTableStats(
    const std::string& table_name) const {
  auto it = table_stats_.find(table_name);
  if (it == table_stats_.end()) {
    return Status::NotFound("no table statistics for '" + table_name + "'");
  }
  return &it->second;
}

Result<TextJoinColumn> ResolveTextJoinColumn(const FederatedQuery& query,
                                             const Catalog& catalog,
                                             const std::string& column_ref) {
  const size_t dot = column_ref.find('.');
  if (dot == std::string::npos) {
    return Status::InvalidArgument("text join column '" + column_ref +
                                   "' must be qualified");
  }
  TEXTJOIN_ASSIGN_OR_RETURN(const RelationRef* rel,
                            query.FindRelation(column_ref.substr(0, dot)));
  TextJoinColumn resolved;
  TEXTJOIN_ASSIGN_OR_RETURN(Table * table, catalog.GetTable(rel->table_name));
  resolved.table = table;
  TEXTJOIN_ASSIGN_OR_RETURN(
      resolved.column,
      table->schema().WithQualifier(rel->name()).Resolve(column_ref));
  resolved.key =
      table->name() + "." + table->schema().column(resolved.column).name;
  return resolved;
}

namespace {

/// The distinct string values of `column`, in ascending order, viewed in
/// place in the table's rows.
std::vector<std::string_view> SortedDistinctStrings(const Table& table,
                                                    size_t column) {
  std::vector<std::string_view> values;
  values.reserve(table.num_rows());
  for (const Row& row : table.rows()) {
    const Value& v = row.at(column);
    if (v.type() == ValueType::kString) values.push_back(v.AsString());
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

/// How a statistics pass measures, the one part its two providers do not
/// share: the exact provider searches the shard corpora, unmetered; the
/// sampled one searches the source `mint` returns when first needed.
class StatsProvider {
 public:
  explicit StatsProvider(const std::vector<const SearchableCorpus*>& shards)
      : shards_(&shards) {}
  StatsProvider(std::function<TextSource&()> mint, size_t sample_size,
                Rng& rng)
      : mint_(std::move(mint)), sample_size_(sample_size), rng_(&rng) {}

  bool exact() const { return shards_ != nullptr; }

  /// The documents a term matches and the postings read to find them.
  struct Matches {
    uint64_t docs = 0;
    uint64_t postings = 0;
  };

  /// s_i and f_i of a join column's sorted distinct string values in
  /// `field`: over every value for the exact provider, over a seeded
  /// sample of at most sample_size values (sorted order shuffled, then
  /// truncated) for the sampled one.
  Result<PredicateStatsEstimate> MeasureJoin(
      std::vector<std::string_view> values, const std::string& field) {
    if (!exact()) {
      rng_->Shuffle(values);
      if (values.size() > sample_size_) values.resize(sample_size_);
    }
    size_t matched = 0;
    uint64_t docs = 0;
    for (std::string_view value : values) {
      TEXTJOIN_ASSIGN_OR_RETURN(Matches matches, Search(field, value));
      if (matches.docs != 0) ++matched;
      docs += matches.docs;
    }
    PredicateStatsEstimate est;
    est.sample_size = values.size();
    est.selectivity =
        static_cast<double>(matched) / static_cast<double>(values.size());
    est.fanout = static_cast<double>(docs) / static_cast<double>(values.size());
    return est;
  }

  /// The matches of `term in field`, summed over the shards. A source
  /// reports no postings; its result size, a lower bound, stands in (the
  /// cost term is tiny under c_p).
  Result<Matches> Search(const std::string& field, std::string_view term) {
    TextQueryPtr query = TextQuery::Term(field, std::string(term));
    Matches total;
    if (!exact()) {
      if (source_ == nullptr) source_ = &mint_();
      TEXTJOIN_ASSIGN_OR_RETURN(std::vector<std::string> docids,
                                source_->Search(*query));
      total.docs = total.postings = docids.size();
      return total;
    }
    for (const SearchableCorpus* shard : *shards_) {
      TEXTJOIN_ASSIGN_OR_RETURN(EngineSearchResult result,
                                shard->Search(*query));
      total.docs += result.docs.size();
      total.postings += result.postings_processed;
    }
    return total;
  }

 private:
  const std::vector<const SearchableCorpus*>* shards_ = nullptr;
  std::function<TextSource&()> mint_;
  TextSource* source_ = nullptr;
  size_t sample_size_ = 0;
  Rng* rng_ = nullptr;
};

/// The statistics pass: tables, then text-join predicates, then text
/// selections (the order fixes the sampled provider's draws).
Status AcquireStatistics(const FederatedQuery& query, const Catalog& catalog,
                         StatsProvider& provider, StatsRegistry& registry) {
  // The refresh rule: a key is measured when the registry lacks it, and
  // always by the exact provider.
  const bool remeasure = provider.exact();
  for (const RelationRef& rel : query.relations) {
    if (!remeasure && registry.GetTableStats(rel.table_name).ok()) continue;
    TEXTJOIN_ASSIGN_OR_RETURN(Table * table, catalog.GetTable(rel.table_name));
    registry.SetTableStats(rel.table_name, TableStats::Analyze(*table));
  }
  for (const TextJoinPredicate& pred : query.text_joins) {
    TEXTJOIN_ASSIGN_OR_RETURN(
        TextJoinColumn column,
        ResolveTextJoinColumn(query, catalog, pred.column_ref));
    if (!remeasure && registry.GetTextJoinStats(column.key, pred.field).ok()) {
      continue;
    }
    std::vector<std::string_view> values =
        SortedDistinctStrings(*column.table, column.column);
    PredicateStatsEstimate est;  // s = f = 0: a non-string never matches.
    if (!values.empty()) {
      TEXTJOIN_ASSIGN_OR_RETURN(
          est, provider.MeasureJoin(std::move(values), pred.field));
    }
    registry.SetTextJoinStats(column.key, pred.field, est.selectivity,
                              est.fanout);
  }
  for (const TextSelection& sel : query.text_selections) {
    if (!remeasure &&
        registry.GetTextSelectionStats(sel.term, sel.field).ok()) {
      continue;
    }
    TEXTJOIN_ASSIGN_OR_RETURN(StatsProvider::Matches matches,
                              provider.Search(sel.field, sel.term));
    registry.SetTextSelectionStats(sel.term, sel.field,
                                   static_cast<double>(matches.docs),
                                   static_cast<double>(matches.postings));
  }
  return Status::OK();
}

}  // namespace

Status ComputeExactStats(const FederatedQuery& query, const Catalog& catalog,
                         const SearchableCorpus& corpus,
                         StatsRegistry& registry) {
  return ComputeExactStats(query, catalog,
                           std::vector<const SearchableCorpus*>{&corpus},
                           registry);
}

Status ComputeExactStats(const FederatedQuery& query, const Catalog& catalog,
                         const std::vector<const SearchableCorpus*>& shards,
                         StatsRegistry& registry) {
  StatsProvider exact(shards);
  return AcquireStatistics(query, catalog, exact, registry);
}

Status ComputeSampledStats(const FederatedQuery& query,
                           const Catalog& catalog,
                           std::function<TextSource&()> source,
                           size_t sample_size, Rng& rng,
                           StatsRegistry& registry) {
  StatsProvider sampled(std::move(source), sample_size, rng);
  return AcquireStatistics(query, catalog, sampled, registry);
}

Result<PredicateStatsEstimate> EstimatePredicateStats(
    const Table& table, size_t column_index, TextSource& source,
    const std::string& field, size_t sample_size, Rng& rng) {
  if (column_index >= table.schema().num_columns()) {
    return Status::OutOfRange("column index " + std::to_string(column_index) +
                              " out of range for table " + table.name());
  }
  std::vector<std::string_view> values =
      SortedDistinctStrings(table, column_index);
  if (values.empty()) {
    return Status::InvalidArgument("column has no string values to sample");
  }
  StatsProvider sampled([&source]() -> TextSource& { return source; },
                        sample_size, rng);
  return sampled.MeasureJoin(std::move(values), field);
}

}  // namespace textjoin
