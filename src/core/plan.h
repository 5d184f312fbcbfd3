#ifndef TEXTJOIN_CORE_PLAN_H_
#define TEXTJOIN_CORE_PLAN_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/federated_query.h"
#include "core/single_join_optimizer.h"
#include "relational/expression.h"
#include "relational/join.h"
#include "relational/schema.h"

/// \file
/// PrL execution trees (paper Section 6): left-deep join trees over stored
/// relations and the text source, optionally augmented with probe nodes
/// (semi-join reducers) between a scan/join and the next join. Probe nodes
/// always precede the foreign-join node.
///
/// Plan nodes are immutable after construction and shared between candidate
/// plans via shared_ptr, so the dynamic-programming enumerator can extend a
/// common prefix without deep copies.

namespace textjoin {

struct PlanNode;
using PlanNodePtr = std::shared_ptr<const PlanNode>;

/// One node of a PrL tree.
struct PlanNode {
  enum class Kind {
    kScan,           ///< Table scan with pushed-down selections.
    kRelationalJoin, ///< Join of the left subtree with a scan subtree.
    kForeignJoin,    ///< The join with the external text source.
    kProbe,          ///< Probe used as a semi-join reducer.
  };

  Kind kind = Kind::kScan;

  // ---- estimates (cumulative for the subtree) ----
  double est_rows = 0.0;
  double est_cost = 0.0;  ///< Simulated seconds (text access + CPU).

  /// For each text join predicate (index into FederatedQuery::text_joins)
  /// whose relation is inside this subtree: the estimated number of
  /// distinct values of its column in the subtree's output.
  std::map<size_t, double> text_pred_distinct;

  /// Text join predicates already applied by a probe node below (their
  /// effective selectivity at the foreign join is 1).
  std::set<size_t> probed_preds;

  // ---- kScan ----
  std::string table_name;
  std::string alias;
  std::vector<ExprPtr> filters;  ///< Pushed-down single-relation conjuncts.

  // ---- children (kRelationalJoin: both; kForeignJoin/kProbe: left) ----
  PlanNodePtr left;
  PlanNodePtr right;

  // ---- kRelationalJoin ----
  std::vector<ExprPtr> conjuncts;  ///< Residual join predicates.
  std::vector<JoinKey> hash_keys;  ///< Equi keys; empty: nested loop.

  // ---- kForeignJoin ----
  MethodChoice method;  ///< Join method + probe mask + predicted cost.
  /// Whether anything above reads the join's outer columns: the SELECT
  /// list, or a relational join above it whose conjunct reads a relation
  /// below it. When false only the document side is read, and SJ applies.
  bool left_columns_needed = true;

  // ---- kProbe ----
  std::vector<size_t> probe_pred_indices;  ///< text_joins probed here.

  /// The output schema of this node.
  Schema output_schema;

  /// Renders an EXPLAIN-style indented tree.
  std::string ToString(const FederatedQuery& query, int indent = 0) const;
};

/// Builders. Each computes the output schema; estimates are filled by the
/// enumerator.
std::shared_ptr<PlanNode> MakeScanNode(const std::string& table_name,
                                       const std::string& alias,
                                       const Schema& table_schema,
                                       std::vector<ExprPtr> filters);
std::shared_ptr<PlanNode> MakeRelationalJoinNode(
    PlanNodePtr left, PlanNodePtr right, std::vector<ExprPtr> conjuncts,
    std::vector<JoinKey> hash_keys);
std::shared_ptr<PlanNode> MakeForeignJoinNode(PlanNodePtr child,
                                              const FederatedQuery& query,
                                              MethodChoice method,
                                              bool left_columns_needed);
std::shared_ptr<PlanNode> MakeProbeNode(PlanNodePtr child,
                                        std::vector<size_t> probe_preds);

}  // namespace textjoin

#endif  // TEXTJOIN_CORE_PLAN_H_
