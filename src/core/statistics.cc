#include "core/statistics.h"

#include <set>

#include "text/query.h"

namespace textjoin {

template <typename Map>
void StatsRegistry::Store(Map& map, typename Map::key_type key,
                          typename Map::mapped_type value) {
  auto it = map.find(key);
  if (it == map.end()) {
    map.emplace(std::move(key), std::move(value));
  } else if (it->second == value) {
    return;
  } else {
    it->second = std::move(value);
  }
  ++generation_;
}

void StatsRegistry::SetTextJoinStats(const std::string& column_ref,
                                     const std::string& field,
                                     double selectivity, double fanout) {
  Store(join_stats_, {column_ref, field}, JoinStatsEntry{selectivity, fanout});
}

Result<TextPredicateStats> StatsRegistry::GetTextJoinStats(
    const std::string& column_ref, const std::string& field) const {
  auto it = join_stats_.find({column_ref, field});
  if (it == join_stats_.end()) {
    return Status::NotFound("no statistics for '" + column_ref + " in " +
                            field + "'");
  }
  TextPredicateStats stats;
  stats.selectivity = it->second.selectivity;
  stats.fanout = it->second.fanout;
  stats.num_distinct = 0.0;  // filled by the caller from table stats
  return stats;
}

bool StatsRegistry::HasTextJoinStats(const std::string& column_ref,
                                     const std::string& field) const {
  return join_stats_.count({column_ref, field}) != 0;
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

namespace {

// Exact (selectivity, fanout, postings) of `term in field` via unmetered
// engine searches, summed across shards (one shard = one corpus).
Result<EngineSearchResult> OracleSearch(
    const std::vector<const SearchableCorpus*>& shards,
    const std::string& field, const std::string& term) {
  TextQueryPtr q = TextQuery::Term(field, term);
  EngineSearchResult total;
  for (const SearchableCorpus* shard : shards) {
    TEXTJOIN_ASSIGN_OR_RETURN(EngineSearchResult result, shard->Search(*q));
    total.docs.insert(total.docs.end(), result.docs.begin(),
                      result.docs.end());
    total.postings_processed += result.postings_processed;
  }
  return total;
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
  // Relational table statistics.
  for (const RelationRef& rel : query.relations) {
    TEXTJOIN_ASSIGN_OR_RETURN(Table * table,
                              catalog.GetTable(rel.table_name));
    registry.SetTableStats(rel.table_name, TableStats::Analyze(*table));
  }
  // Text selection statistics.
  for (const TextSelection& sel : query.text_selections) {
    TEXTJOIN_ASSIGN_OR_RETURN(EngineSearchResult result,
                              OracleSearch(shards, sel.field, sel.term));
    registry.SetTextSelectionStats(
        sel.term, sel.field, static_cast<double>(result.docs.size()),
        static_cast<double>(result.postings_processed));
  }
  // Text join predicate statistics: enumerate the column's distinct values.
  for (const TextJoinPredicate& pred : query.text_joins) {
    const size_t dot = pred.column_ref.find('.');
    if (dot == std::string::npos) {
      return Status::InvalidArgument("text join column '" + pred.column_ref +
                                     "' must be qualified");
    }
    const std::string rel_name = pred.column_ref.substr(0, dot);
    TEXTJOIN_ASSIGN_OR_RETURN(const RelationRef* rel,
                              query.FindRelation(rel_name));
    TEXTJOIN_ASSIGN_OR_RETURN(Table * table,
                              catalog.GetTable(rel->table_name));
    TEXTJOIN_ASSIGN_OR_RETURN(size_t col,
                              table->schema().Resolve(pred.column_ref));
    std::set<std::string> distinct;
    for (const Row& row : table->rows()) {
      const Value& v = row.at(col);
      if (v.type() == ValueType::kString) distinct.insert(v.AsString());
    }
    if (distinct.empty()) {
      registry.SetTextJoinStats(pred.column_ref, pred.field, 0.0, 0.0);
      continue;
    }
    size_t matched = 0;
    uint64_t total_docs = 0;
    for (const std::string& term : distinct) {
      TEXTJOIN_ASSIGN_OR_RETURN(EngineSearchResult result,
                                OracleSearch(shards, pred.field, term));
      if (!result.docs.empty()) ++matched;
      total_docs += result.docs.size();
    }
    registry.SetTextJoinStats(
        pred.column_ref, pred.field,
        static_cast<double>(matched) / static_cast<double>(distinct.size()),
        static_cast<double>(total_docs) /
            static_cast<double>(distinct.size()));
  }
  return Status::OK();
}

}  // namespace textjoin
