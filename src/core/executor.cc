#include "core/executor.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "common/string_util.h"
#include "common/text_match.h"
#include "connector/remote_text_source.h"
#include "core/join_methods.h"
#include "relational/join.h"

namespace textjoin {

namespace {

/// Snapshot of the source's meter (zeros when the source is unmetered).
/// Decorator chains (resilience, chaos) are unwrapped to find the metered
/// source, so profiling keeps working under fault-tolerant wrappers.
AccessMeter MeterSnapshot(TextSource* source) {
  if (MeteredTextSource* metered = UnwrapMetered(source)) {
    return metered->meter();
  }
  return AccessMeter{};
}

/// a - b, fieldwise.
AccessMeter MeterDelta(const AccessMeter& a, const AccessMeter& b) {
  AccessMeter d;
  d.invocations = a.invocations - b.invocations;
  d.postings_processed = a.postings_processed - b.postings_processed;
  d.short_docs = a.short_docs - b.short_docs;
  d.long_docs = a.long_docs - b.long_docs;
  d.relational_matches = a.relational_matches - b.relational_matches;
  return d;
}

}  // namespace

ForeignJoinSpec PlanExecutor::BuildSpec(const PlanNode& node,
                                        const FederatedQuery& query,
                                        const Schema& left_schema) const {
  ForeignJoinSpec spec;
  spec.left_schema = left_schema;
  spec.selections = query.text_selections;
  spec.joins = query.text_joins;
  spec.text = query.text;
  spec.need_document_fields = query.NeedsDocumentFields();
  // The enumerator decided whether outer columns are read above this
  // join: by the SELECT list, or by a relational join's conjunct above it.
  spec.left_columns_needed = node.left_columns_needed;
  return spec;
}

Result<RowIdSet> PlanExecutor::Exec(const PlanNode& node,
                                    const FederatedQuery& query,
                                    ExecutionProfile* profile,
                                    pipeline::StageScheduler* sched) {
  TEXTJOIN_ASSIGN_OR_RETURN(RowIdSet result,
                            ExecNode(node, query, profile, sched));
  if (profile != nullptr) {
    profile->nodes[&node].actual_rows = result.size();
  }
  return result;
}

Result<RowIdSet> PlanExecutor::ExecNode(const PlanNode& node,
                                        const FederatedQuery& query,
                                        ExecutionProfile* profile,
                                        pipeline::StageScheduler* sched) {
  switch (node.kind) {
    case PlanNode::Kind::kScan: {
      TEXTJOIN_ASSIGN_OR_RETURN(Table * table,
                                catalog_->GetTable(node.table_name));
      TEXTJOIN_ASSIGN_OR_RETURN(
          std::vector<size_t> ids,
          SelectRows(node.output_schema, *table, node.filters));
      return RowIdSet::Borrowed(node.output_schema, *table, std::move(ids));
    }
    case PlanNode::Kind::kProbe: {
      TEXTJOIN_ASSIGN_OR_RETURN(RowIdSet child,
                                Exec(*node.left, query, profile, sched));
      TEXTJOIN_CHECK(sched != nullptr, "probe node without a text source");
      const AccessMeter before = MeterSnapshot(source_);
      ForeignJoinSpec spec;
      spec.left_schema = child.schema();
      spec.selections = query.text_selections;
      spec.text = query.text;
      for (size_t i : node.probe_pred_indices) {
        spec.joins.push_back(query.text_joins.at(i));
      }
      pipeline::PipelineProfile stages;
      TEXTJOIN_ASSIGN_OR_RETURN(
          RowIdSet survivors,
          pipeline::RunProbeReducer(*sched, spec, child,
                                    FullMask(spec.joins.size()),
                                    profile != nullptr ? &stages : nullptr));
      if (profile != nullptr) {
        NodeProfile& np = profile->nodes[&node];
        np.meter_delta = MeterDelta(MeterSnapshot(source_), before);
        np.stages = std::move(stages);
      }
      return survivors;
    }
    case PlanNode::Kind::kForeignJoin: {
      TEXTJOIN_ASSIGN_OR_RETURN(RowIdSet child,
                                Exec(*node.left, query, profile, sched));
      TEXTJOIN_CHECK(sched != nullptr, "foreign join without a text source");
      const AccessMeter before = MeterSnapshot(source_);
      ForeignJoinSpec spec = BuildSpec(node, query, child.schema());
      pipeline::PipelineProfile stages;
      TEXTJOIN_ASSIGN_OR_RETURN(
          ForeignJoinResult joined,
          pipeline::RunForeignJoin(*sched, node.method.method, spec, child,
                                   node.method.probe_mask,
                                   profile != nullptr ? &stages : nullptr));
      if (profile != nullptr) {
        NodeProfile& np = profile->nodes[&node];
        np.meter_delta = MeterDelta(MeterSnapshot(source_), before);
        np.stages = std::move(stages);
      }
      // The foreign join's output is materialized: it becomes one part.
      return RowIdSet::Owned(std::move(joined.schema), std::move(joined.rows));
    }
    case PlanNode::Kind::kRelationalJoin: {
      TEXTJOIN_ASSIGN_OR_RETURN(RowIdSet lhs,
                                Exec(*node.left, query, profile, sched));
      TEXTJOIN_ASSIGN_OR_RETURN(RowIdSet rhs,
                                Exec(*node.right, query, profile, sched));
      ExprPtr residual;
      std::vector<ExprPtr> residual_parts;
      for (const ExprPtr& c : node.conjuncts) {
        residual_parts.push_back(c->Clone());
      }
      if (!residual_parts.empty()) {
        residual = residual_parts.size() == 1
                       ? std::move(residual_parts[0])
                       : And(std::move(residual_parts));
      }
      return JoinRows(lhs, rhs, node.hash_keys, std::move(residual));
    }
  }
  return Status::Internal("unknown plan node kind");
}


namespace {

/// Applies GROUP BY + aggregates to `tuples`, reading their columns in
/// place: the output schema is the group-by columns followed by one column
/// per aggregate. Without group-by columns, a single global group (even
/// when the input is empty, per SQL: COUNT(*) over nothing is 0).
Result<ExecutionResult> Aggregate(const FederatedQuery& query,
                                  const RowIdSet& tuples) {
  const Schema& schema = tuples.schema();
  std::vector<RowIdSet::ColumnRef> group_cols;
  Schema agg_schema;
  for (const std::string& ref : query.group_by) {
    TEXTJOIN_ASSIGN_OR_RETURN(size_t idx, schema.Resolve(ref));
    group_cols.push_back(tuples.Locate(idx));
    agg_schema.AddColumn(schema.column(idx));
  }
  std::vector<RowIdSet::ColumnRef> agg_cols(query.aggregates.size());
  for (size_t a = 0; a < query.aggregates.size(); ++a) {
    const AggregateItem& agg = query.aggregates[a];
    size_t idx = 0;
    if (agg.kind != AggregateItem::Kind::kCountStar) {
      TEXTJOIN_ASSIGN_OR_RETURN(idx, schema.Resolve(agg.column));
      agg_cols[a] = tuples.Locate(idx);
    }
    ValueType type;
    switch (agg.kind) {
      case AggregateItem::Kind::kCountStar:
      case AggregateItem::Kind::kCount:
        type = ValueType::kInt64;
        break;
      case AggregateItem::Kind::kSum:
      case AggregateItem::Kind::kAvg:
        type = ValueType::kDouble;
        break;
      default:
        type = schema.column(idx).type;
        break;
    }
    agg_schema.AddColumn(Column{"", agg.Name(), type});
  }

  struct GroupState {
    std::vector<int64_t> counts;
    std::vector<Value> mins;
    std::vector<Value> maxs;
    std::vector<double> sums;
  };
  std::map<Row, GroupState> groups;  // ordered => deterministic output
  if (query.group_by.empty()) {
    groups[Row{}] = GroupState{};  // the global group always exists
  }
  for (size_t t = 0; t < tuples.size(); ++t) {
    Row key;
    key.reserve(group_cols.size());
    for (const RowIdSet::ColumnRef& c : group_cols) {
      key.push_back(tuples.at(t, c));
    }
    GroupState& state = groups[std::move(key)];
    state.counts.resize(query.aggregates.size(), 0);
    state.mins.resize(query.aggregates.size());
    state.maxs.resize(query.aggregates.size());
    state.sums.resize(query.aggregates.size(), 0.0);
    for (size_t a = 0; a < query.aggregates.size(); ++a) {
      const AggregateItem& agg = query.aggregates[a];
      if (agg.kind == AggregateItem::Kind::kCountStar) {
        ++state.counts[a];
        continue;
      }
      const Value& v = tuples.at(t, agg_cols[a]);
      if (v.is_null()) continue;  // SQL: aggregates skip NULLs
      ++state.counts[a];
      if (state.mins[a].is_null() || v < state.mins[a]) state.mins[a] = v;
      if (state.maxs[a].is_null() || v > state.maxs[a]) state.maxs[a] = v;
      if ((agg.kind == AggregateItem::Kind::kSum ||
           agg.kind == AggregateItem::Kind::kAvg) &&
          (v.type() == ValueType::kInt64 ||
           v.type() == ValueType::kDouble)) {
        state.sums[a] += v.NumericValue();
      }
    }
  }
  ExecutionResult aggregated;
  aggregated.schema = std::move(agg_schema);
  for (auto& [key, state] : groups) {
    Row row = key;
    state.counts.resize(query.aggregates.size(), 0);
    state.mins.resize(query.aggregates.size());
    state.maxs.resize(query.aggregates.size());
    for (size_t a = 0; a < query.aggregates.size(); ++a) {
      switch (query.aggregates[a].kind) {
        case AggregateItem::Kind::kCountStar:
        case AggregateItem::Kind::kCount:
          row.push_back(Value::Int(state.counts[a]));
          break;
        case AggregateItem::Kind::kMin:
          row.push_back(state.mins[a]);
          break;
        case AggregateItem::Kind::kMax:
          row.push_back(state.maxs[a]);
          break;
        case AggregateItem::Kind::kSum:
          row.push_back(state.counts[a] == 0 ? Value::Null()
                                             : Value::Real(state.sums[a]));
          break;
        case AggregateItem::Kind::kAvg:
          row.push_back(state.counts[a] == 0
                            ? Value::Null()
                            : Value::Real(state.sums[a] /
                                          static_cast<double>(
                                              state.counts[a])));
          break;
      }
    }
    aggregated.rows.push_back(std::move(row));
  }
  return aggregated;
}

/// Applies SELECT DISTINCT / ORDER BY / LIMIT on a materialized result.
Status ApplyDecorations(const FederatedQuery& query, ExecutionResult& out) {
  if (query.distinct) {
    std::unordered_set<Row, RowHash, RowEq> seen;
    std::vector<Row> kept;
    for (Row& row : out.rows) {
      if (seen.insert(row).second) kept.push_back(std::move(row));
    }
    out.rows = std::move(kept);
  }
  if (!query.order_by.empty()) {
    std::vector<size_t> keys;
    for (const std::string& ref : query.order_by) {
      TEXTJOIN_ASSIGN_OR_RETURN(size_t idx, out.schema.Resolve(ref));
      keys.push_back(idx);
    }
    // Compares the key columns in place; ties keep their input order.
    std::stable_sort(out.rows.begin(), out.rows.end(),
                     [&keys](const Row& a, const Row& b) {
                       for (size_t k : keys) {
                         const int c = a[k].Compare(b[k]);
                         if (c != 0) return c < 0;
                       }
                       return false;
                     });
  }
  if (query.limit != FederatedQuery::kNoLimit &&
      out.rows.size() > query.limit) {
    out.rows.resize(query.limit);
  }
  return Status::OK();
}

}  // namespace

Result<ExecutionResult> PlanExecutor::Execute(const PlanNode& root,
                                              const FederatedQuery& query,
                                              ExecutionProfile* profile,
                                              DegradationReport* degradation) {
  AtomicDegradation sink;
  FaultPolicy policy;
  policy.mode = options_.failure_mode;
  policy.degradation = &sink;
  // One scheduler for the whole plan: every probe reducer and the foreign
  // join register their stages on it, so a multi-join PrL plan executes as
  // one composed DAG sharing the pool, policy, query token, and failure
  // selection. It adopts the caller's ambient query token.
  std::optional<pipeline::StageScheduler> sched;
  if (source_ != nullptr) sched.emplace(pool_, *source_, policy);
  Result<RowIdSet> executed =
      Exec(root, query, profile, sched ? &*sched : nullptr);
  if (degradation != nullptr) *degradation = sink.Snapshot();
  TEXTJOIN_ASSIGN_OR_RETURN(RowIdSet tuples, std::move(executed));
  if (!query.aggregates.empty()) {
    TEXTJOIN_ASSIGN_OR_RETURN(ExecutionResult result,
                              Aggregate(query, tuples));
    TEXTJOIN_RETURN_IF_ERROR(ApplyDecorations(query, result));
    return result;
  }
  // SELECT *: project onto the canonical column order (FROM-list order,
  // then the text relation), independent of the join order the plan chose.
  std::vector<std::string> output_refs = query.output_columns;
  if (output_refs.empty()) {
    for (const RelationRef& rel : query.relations) {
      TEXTJOIN_ASSIGN_OR_RETURN(Table * table,
                                catalog_->GetTable(rel.table_name));
      for (const Column& col : table->schema().columns()) {
        output_refs.push_back(rel.name() + "." + col.name);
      }
    }
    if (query.has_text_relation) {
      // Named so the Schema outlives the loop (a temporary would be
      // destroyed before the range-for body runs, pre-C++23).
      const Schema text_schema = query.text.ToSchema();
      for (const Column& col : text_schema.columns()) {
        output_refs.push_back(query.text.alias + "." + col.name);
      }
    }
  }
  // The output rows: each projected column read in place from the root's
  // tuples.
  std::vector<RowIdSet::ColumnRef> columns;
  Schema projected;
  for (const std::string& ref : output_refs) {
    TEXTJOIN_ASSIGN_OR_RETURN(size_t idx, tuples.schema().Resolve(ref));
    columns.push_back(tuples.Locate(idx));
    projected.AddColumn(tuples.schema().column(idx));
  }
  ExecutionResult out;
  out.schema = std::move(projected);
  out.rows.reserve(tuples.size());
  for (size_t t = 0; t < tuples.size(); ++t) {
    Row& row = out.rows.emplace_back();
    row.reserve(columns.size());
    for (const RowIdSet::ColumnRef& c : columns) row.push_back(tuples.at(t, c));
  }
  TEXTJOIN_RETURN_IF_ERROR(ApplyDecorations(query, out));
  return out;
}

Result<ExecutionResult> ReferenceExecute(
    const FederatedQuery& query, const Catalog& catalog,
    const std::vector<Document>& all_documents) {
  // 1. Cross product of all relations.
  Schema schema;
  std::vector<Row> rows = {Row{}};
  for (const RelationRef& rel : query.relations) {
    TEXTJOIN_ASSIGN_OR_RETURN(Table * table,
                              catalog.GetTable(rel.table_name));
    const Schema rel_schema = table->schema().WithQualifier(rel.name());
    schema = schema.Concat(rel_schema);
    std::vector<Row> next;
    next.reserve(rows.size() * table->num_rows());
    for (const Row& acc : rows) {
      for (const Row& row : table->rows()) {
        next.push_back(ConcatRows(acc, row));
      }
    }
    rows = std::move(next);
  }
  // 2. Relational predicates.
  TEXTJOIN_ASSIGN_OR_RETURN(
      std::vector<size_t> kept,
      SelectRows(schema, rows, query.relational_predicates));
  for (size_t i = 0; i < kept.size(); ++i) {
    if (kept[i] != i) rows[i] = std::move(rows[kept[i]]);
  }
  rows.resize(kept.size());
  ExecutionResult joined;
  if (!query.has_text_relation) {
    joined.schema = schema;
    joined.rows = std::move(rows);
  } else {
    // 3. Cross with every document, filtering text predicates with the
    // shared relational-side matcher.
    std::vector<size_t> join_cols;
    for (const TextJoinPredicate& pred : query.text_joins) {
      TEXTJOIN_ASSIGN_OR_RETURN(size_t idx, schema.Resolve(pred.column_ref));
      join_cols.push_back(idx);
    }
    joined.schema = schema.Concat(query.text.ToSchema());
    for (const Document& doc : all_documents) {
      bool sel_ok = true;
      for (const TextSelection& sel : query.text_selections) {
        if (!TermMatchesFieldText(
                sel.term, JoinFieldValues(doc.FieldValues(sel.field)))) {
          sel_ok = false;
          break;
        }
      }
      if (!sel_ok) continue;
      Row doc_row;
      doc_row.push_back(Value::Str(doc.docid));
      for (const std::string& field : query.text.fields) {
        doc_row.push_back(Value::Str(JoinFieldValues(doc.FieldValues(field))));
      }
      for (const Row& row : rows) {
        bool join_ok = true;
        for (size_t p = 0; p < query.text_joins.size(); ++p) {
          const Value& v = row.at(join_cols[p]);
          if (v.type() != ValueType::kString ||
              !TermMatchesFieldText(
                  v.AsString(),
                  JoinFieldValues(
                      doc.FieldValues(query.text_joins[p].field)))) {
            join_ok = false;
            break;
          }
        }
        if (join_ok) joined.rows.push_back(ConcatRows(row, doc_row));
      }
    }
  }
  // 4. Aggregation / projection / decorations.
  if (!query.aggregates.empty()) {
    TEXTJOIN_ASSIGN_OR_RETURN(
        ExecutionResult result,
        Aggregate(query, RowIdSet::BorrowedAll(joined.schema, joined.rows)));
    TEXTJOIN_RETURN_IF_ERROR(ApplyDecorations(query, result));
    return result;
  }
  if (query.output_columns.empty()) {
    TEXTJOIN_RETURN_IF_ERROR(ApplyDecorations(query, joined));
    return joined;
  }
  std::vector<size_t> indices;
  Schema projected;
  for (const std::string& ref : query.output_columns) {
    TEXTJOIN_ASSIGN_OR_RETURN(size_t idx, joined.schema.Resolve(ref));
    indices.push_back(idx);
    projected.AddColumn(joined.schema.column(idx));
  }
  ExecutionResult out;
  out.schema = std::move(projected);
  for (const Row& row : joined.rows) {
    out.rows.push_back(ProjectRow(row, indices));
  }
  TEXTJOIN_RETURN_IF_ERROR(ApplyDecorations(query, out));
  return out;
}


namespace {

void RenderAnalyze(const PlanNode& node, const FederatedQuery& query,
                   const ExecutionProfile& profile, const CostParams& params,
                   RenderMode mode, int indent, std::string& out) {
  const bool stable = mode == RenderMode::kStable;
  // Reuse the plan's own one-node rendering by taking the first line of its
  // ToString and appending the actuals.
  const std::string rendered = node.ToString(query, indent);
  const size_t eol = rendered.find('\n');
  out += rendered.substr(0, eol);
  auto it = profile.nodes.find(&node);
  if (it != profile.nodes.end()) {
    char buf[128];
    std::snprintf(buf, sizeof(buf), " (actual rows=%zu",
                  it->second.actual_rows);
    out += buf;
    const double seconds = it->second.meter_delta.SimulatedSeconds(params);
    if (seconds > 0) {
      std::snprintf(buf, sizeof(buf), " text-cost=%.2fs [%s]", seconds,
                    it->second.meter_delta.ToString().c_str());
      out += buf;
    }
    out += ")";
  }
  out += "\n";
  // Pipeline-backed nodes (foreign join / probe) break down into their
  // stages: one indented line per stage with wall-clock and meter deltas.
  if (it != profile.nodes.end() && !it->second.stages.empty()) {
    const std::string pad((indent + 1) * 2, ' ');
    for (const pipeline::StageStats& stage : it->second.stages.stages) {
      out += pad;
      out += "| ";
      out += stage.ToString(stable);
      out += "\n";
    }
    // Cross-query cache traffic summed over the node's stages, on its own
    // line next to the stage lines. Rendered only when the node touched a
    // cache at all, so cache-off output is byte-identical to before.
    uint64_t hits = 0, misses = 0, coalesced = 0;
    for (const pipeline::StageStats& stage : it->second.stages.stages) {
      hits += stage.cache_hits;
      misses += stage.cache_misses;
      coalesced += stage.cache_coalesced;
    }
    if (hits + misses + coalesced != 0) {
      out += pad;
      out += "| cache hits=" + std::to_string(hits) +
             " misses=" + std::to_string(misses) +
             " coalesced=" + std::to_string(coalesced) + "\n";
    }
  }
  if (node.left != nullptr) {
    RenderAnalyze(*node.left, query, profile, params, mode, indent + 1, out);
  }
  if (node.right != nullptr) {
    RenderAnalyze(*node.right, query, profile, params, mode, indent + 1, out);
  }
}

}  // namespace

std::string ExplainAnalyze(const PlanNode& root, const FederatedQuery& query,
                           const ExecutionProfile& profile,
                           const CostParams& params, RenderMode mode) {
  std::string out;
  RenderAnalyze(root, query, profile, params, mode, 0, out);
  return out;
}

}  // namespace textjoin
