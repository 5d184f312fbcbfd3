#include "core/plan.h"

#include "common/string_util.h"

namespace textjoin {

namespace {

std::string Indent(int levels) { return std::string(levels * 2, ' '); }

}  // namespace

std::string PlanNode::ToString(const FederatedQuery& query,
                               int indent) const {
  std::string out = Indent(indent);
  char buf[96];
  std::snprintf(buf, sizeof(buf), " [rows=%.1f cost=%.2fs]", est_rows,
                est_cost);
  switch (kind) {
    case Kind::kScan: {
      out += "Scan " + table_name;
      if (!alias.empty() && alias != table_name) out += " AS " + alias;
      if (!filters.empty()) {
        std::vector<std::string> parts;
        for (const ExprPtr& f : filters) parts.push_back(f->ToString());
        out += " filter(" + Join(parts, " AND ") + ")";
      }
      out += buf;
      out += "\n";
      return out;
    }
    case Kind::kProbe: {
      out += "Probe[";
      std::vector<std::string> parts;
      for (size_t i : probe_pred_indices) {
        parts.push_back(query.text_joins.at(i).ToString());
      }
      out += Join(parts, ", ") + "]";
      out += buf;
      out += "\n";
      out += left->ToString(query, indent + 1);
      return out;
    }
    case Kind::kForeignJoin: {
      out += "ForeignJoin " + query.text.alias + " method=" +
             JoinMethodName(method.method);
      if (method.method == JoinMethodKind::kPTS ||
          method.method == JoinMethodKind::kPRTP) {
        out += " probe=" + MaskToString(method.probe_mask);
      }
      out += buf;
      out += "\n";
      out += left->ToString(query, indent + 1);
      return out;
    }
    case Kind::kRelationalJoin: {
      out += hash_keys.empty() ? "NestedLoopJoin" : "HashJoin";
      if (!conjuncts.empty()) {
        std::vector<std::string> parts;
        for (const ExprPtr& c : conjuncts) parts.push_back(c->ToString());
        out += " on(" + Join(parts, " AND ") + ")";
      }
      out += buf;
      out += "\n";
      out += left->ToString(query, indent + 1);
      out += right->ToString(query, indent + 1);
      return out;
    }
  }
  return out + "?\n";
}

std::shared_ptr<PlanNode> MakeScanNode(const std::string& table_name,
                                       const std::string& alias,
                                       const Schema& table_schema,
                                       std::vector<ExprPtr> filters) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanNode::Kind::kScan;
  node->table_name = table_name;
  node->alias = alias.empty() ? table_name : alias;
  node->filters = std::move(filters);
  node->output_schema = table_schema.WithQualifier(node->alias);
  return node;
}

std::shared_ptr<PlanNode> MakeRelationalJoinNode(
    PlanNodePtr left, PlanNodePtr right, std::vector<ExprPtr> conjuncts,
    std::vector<JoinKey> hash_keys) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanNode::Kind::kRelationalJoin;
  node->output_schema = left->output_schema.Concat(right->output_schema);
  node->left = std::move(left);
  node->right = std::move(right);
  node->conjuncts = std::move(conjuncts);
  node->hash_keys = std::move(hash_keys);
  return node;
}

std::shared_ptr<PlanNode> MakeForeignJoinNode(PlanNodePtr child,
                                              const FederatedQuery& query,
                                              MethodChoice method,
                                              bool left_columns_needed) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanNode::Kind::kForeignJoin;
  node->output_schema =
      child->output_schema.Concat(query.text.ToSchema());
  node->left = std::move(child);
  node->method = method;
  node->left_columns_needed = left_columns_needed;
  return node;
}

std::shared_ptr<PlanNode> MakeProbeNode(PlanNodePtr child,
                                        std::vector<size_t> probe_preds) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanNode::Kind::kProbe;
  node->output_schema = child->output_schema;
  node->left = std::move(child);
  node->probe_pred_indices = std::move(probe_preds);
  return node;
}

}  // namespace textjoin
