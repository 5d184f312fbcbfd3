#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "connector/remote_text_source.h"
#include "core/enumerator.h"
#include "core/executor.h"
#include "core/statistics.h"
#include "tests/test_util.h"

namespace textjoin {
namespace {

using textjoin::testing::MakeFacultyTable;
using textjoin::testing::MakeSmallEngine;
using textjoin::testing::MakeStudentTable;
using textjoin::testing::MercuryDecl;

/// Counts plan nodes of a given kind.
size_t CountNodes(const PlanNode& node, PlanNode::Kind kind) {
  size_t count = node.kind == kind ? 1 : 0;
  if (node.left) count += CountNodes(*node.left, kind);
  if (node.right) count += CountNodes(*node.right, kind);
  return count;
}

/// True if a probe node appears above (after) the foreign join.
bool ProbeAboveForeignJoin(const PlanNode& node, bool below_foreign = false) {
  if (node.kind == PlanNode::Kind::kProbe && !below_foreign) return true;
  const bool below =
      below_foreign || node.kind == PlanNode::Kind::kForeignJoin;
  bool bad = false;
  // In a PrL tree the foreign join is an ancestor of everything it covers,
  // so "after the foreign join" = probe nodes NOT in its subtree.
  if (node.left) {
    bad = bad || ProbeAboveForeignJoin(
                     *node.left,
                     below || node.kind == PlanNode::Kind::kForeignJoin);
  }
  if (node.right) {
    bad = bad || ProbeAboveForeignJoin(*node.right, below);
  }
  return node.kind == PlanNode::Kind::kProbe && !below_foreign ? false : bad;
}

std::multiset<std::string> Rendered(const ExecutionResult& result) {
  std::multiset<std::string> out;
  for (const Row& row : result.rows) out.insert(RowToString(row));
  return out;
}

class OptimizerTest : public ::testing::Test {
 protected:
  OptimizerTest() : engine_(MakeSmallEngine()), source_(engine_.get()) {
    TEXTJOIN_CHECK(catalog_.AddTable(MakeStudentTable()).ok(), "student");
    TEXTJOIN_CHECK(catalog_.AddTable(MakeFacultyTable()).ok(), "faculty");
  }

  /// Q1-style: single relation + text.
  FederatedQuery SingleJoinQuery() const {
    FederatedQuery q;
    q.relations = {{"student", "student"}};
    q.text = MercuryDecl();
    q.has_text_relation = true;
    q.relational_predicates.push_back(
        Cmp(CompareOp::kGt, Col("student.year"), Lit(Value::Int(3))));
    q.text_selections = {{"belief", "title"}};
    q.text_joins = {{"student.name", "author"}};
    q.output_columns = {"student.name", "mercury.docid"};
    return q;
  }

  /// Q5-style: student x faculty x mercury with a cross-relation conjunct.
  FederatedQuery MultiJoinQuery() const {
    FederatedQuery q;
    q.relations = {{"student", "student"}, {"faculty", "faculty"}};
    q.text = MercuryDecl();
    q.has_text_relation = true;
    q.relational_predicates.push_back(
        Cmp(CompareOp::kNe, Col("faculty.area"), Col("student.area")));
    q.text_selections = {{"1994", "year"}};
    q.text_joins = {{"student.name", "author"},
                    {"faculty.name", "author"}};
    q.output_columns = {"student.name", "faculty.name", "mercury.docid"};
    return q;
  }

  /// Pure relational: student x faculty on area.
  FederatedQuery RelationalQuery() const {
    FederatedQuery q;
    q.relations = {{"student", "student"}, {"faculty", "faculty"}};
    q.relational_predicates.push_back(
        Eq(Col("student.area"), Col("faculty.area")));
    q.output_columns = {"student.name", "faculty.name"};
    return q;
  }

  Result<PlanNodePtr> OptimizeQuery(const FederatedQuery& q,
                                    bool enable_probes = true) {
    StatsRegistry registry;
    Status st = ComputeExactStats(q, catalog_, *engine_, registry);
    TEXTJOIN_CHECK(st.ok(), "%s", st.ToString().c_str());
    EnumeratorOptions options;
    options.enable_probes = enable_probes;
    Enumerator enumerator(&catalog_, &registry, engine_->num_documents(),
                          engine_->max_search_terms(), options);
    // Registry/enumerator are locals; run optimization eagerly.
    return enumerator.Optimize(q);
  }

  Catalog catalog_;
  std::unique_ptr<TextEngine> engine_;
  RemoteTextSource source_;
};

TEST_F(OptimizerTest, SingleJoinPlanShape) {
  auto plan = OptimizeQuery(SingleJoinQuery());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(CountNodes(**plan, PlanNode::Kind::kForeignJoin), 1u);
  EXPECT_EQ(CountNodes(**plan, PlanNode::Kind::kScan), 1u);
  EXPECT_EQ(CountNodes(**plan, PlanNode::Kind::kRelationalJoin), 0u);
}

TEST_F(OptimizerTest, SingleJoinExecutesCorrectly) {
  FederatedQuery q = SingleJoinQuery();
  auto plan = OptimizeQuery(q);
  ASSERT_TRUE(plan.ok());
  PlanExecutor executor(&catalog_, &source_);
  auto result = executor.Execute(**plan, q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto reference = ReferenceExecute(q, catalog_, engine_->documents());
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(Rendered(*result), Rendered(*reference));
  // Ground truth: seniors (year>3) co-occurring with 'belief' titles:
  // Radhika(4) on d1, Smith(4) on d1. Kao is year 2 — filtered out.
  EXPECT_EQ(result->rows.size(), 2u);
}

TEST_F(OptimizerTest, MultiJoinExecutesCorrectly) {
  FederatedQuery q = MultiJoinQuery();
  auto plan = OptimizeQuery(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  PlanExecutor executor(&catalog_, &source_);
  auto result = executor.Execute(**plan, q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto reference = ReferenceExecute(q, catalog_, engine_->documents());
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(Rendered(*result), Rendered(*reference));
  // Ground truth: d5 {Smith, Garcia}, Smith is AI, Garcia is DS, year 1994.
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_EQ(result->rows[0][0].AsString(), "Smith");
  EXPECT_EQ(result->rows[0][1].AsString(), "Garcia");
  EXPECT_EQ(result->rows[0][2].AsString(), "d5");
}

TEST_F(OptimizerTest, LeftDeepModeProducesNoProbes) {
  auto plan = OptimizeQuery(MultiJoinQuery(), /*enable_probes=*/false);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(CountNodes(**plan, PlanNode::Kind::kProbe), 0u);
}

TEST_F(OptimizerTest, PrLNeverWorseThanLeftDeep) {
  auto prl = OptimizeQuery(MultiJoinQuery(), true);
  auto left_deep = OptimizeQuery(MultiJoinQuery(), false);
  ASSERT_TRUE(prl.ok());
  ASSERT_TRUE(left_deep.ok());
  EXPECT_LE((*prl)->est_cost, (*left_deep)->est_cost * (1 + 1e-9));
}

TEST_F(OptimizerTest, ProbesOnlyPrecedeForeignJoin) {
  auto plan = OptimizeQuery(MultiJoinQuery(), true);
  ASSERT_TRUE(plan.ok());
  EXPECT_FALSE(ProbeAboveForeignJoin(**plan));
}

TEST_F(OptimizerTest, PrLPlanExecutesCorrectlyEvenWithProbes) {
  // Force probes to look attractive by making invocations cheap for the
  // probe phase estimate — correctness must hold regardless of plan shape.
  FederatedQuery q = MultiJoinQuery();
  StatsRegistry registry;
  ASSERT_TRUE(ComputeExactStats(q, catalog_, *engine_, registry).ok());
  EnumeratorOptions options;
  options.enable_probes = true;
  options.cpu_cost_per_tuple = 10.0;  // absurdly expensive relational work
  Enumerator enumerator(&catalog_, &registry, engine_->num_documents(),
                        engine_->max_search_terms(), options);
  auto plan = enumerator.Optimize(q);
  ASSERT_TRUE(plan.ok());
  PlanExecutor executor(&catalog_, &source_);
  auto result = executor.Execute(**plan, q);
  ASSERT_TRUE(result.ok());
  auto reference = ReferenceExecute(q, catalog_, engine_->documents());
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(Rendered(*result), Rendered(*reference));
}

TEST_F(OptimizerTest, PureRelationalQuery) {
  FederatedQuery q = RelationalQuery();
  auto plan = OptimizeQuery(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(CountNodes(**plan, PlanNode::Kind::kForeignJoin), 0u);
  EXPECT_EQ(CountNodes(**plan, PlanNode::Kind::kRelationalJoin), 1u);
  PlanExecutor executor(&catalog_, &source_);
  auto result = executor.Execute(**plan, q);
  ASSERT_TRUE(result.ok());
  auto reference = ReferenceExecute(q, catalog_, {});
  ASSERT_TRUE(reference.ok());
  EXPECT_EQ(Rendered(*result), Rendered(*reference));
  // DS: Gravano, Kao x Garcia; AI: Radhika, Smith x Ullman; IR: Yan x
  // Widom = 5 pairs.
  EXPECT_EQ(result->rows.size(), 5u);
}

TEST_F(OptimizerTest, EquiJoinUsesHashJoin) {
  auto plan = OptimizeQuery(RelationalQuery());
  ASSERT_TRUE(plan.ok());
  const PlanNode* join = plan->get();
  ASSERT_EQ(join->kind, PlanNode::Kind::kRelationalJoin);
  EXPECT_FALSE(join->hash_keys.empty());
}

TEST_F(OptimizerTest, NullEquiJoinKeysMatchNothing) {
  // a(k, x) and b(k, y): each join column holds one NULL and one 'p'.
  auto make = [](const char* name, const char* payload, int64_t base) {
    Schema schema;
    schema.AddColumn(Column{name, "k", ValueType::kString});
    schema.AddColumn(Column{name, payload, ValueType::kInt64});
    auto table = std::make_unique<Table>(name, schema);
    TEXTJOIN_CHECK(table->Insert({Value::Null(), Value::Int(base)}).ok(),
                   "%s", name);
    TEXTJOIN_CHECK(table->Insert({Value::Str("p"), Value::Int(2 * base)}).ok(),
                   "%s", name);
    return table;
  };
  ASSERT_TRUE(catalog_.AddTable(make("a", "x", 1)).ok());
  ASSERT_TRUE(catalog_.AddTable(make("b", "y", 10)).ok());
  FederatedQuery q;
  q.relations = {{"a", "a"}, {"b", "b"}};
  q.relational_predicates.push_back(Eq(Col("a.k"), Col("b.k")));
  q.output_columns = {"a.x", "b.y"};

  auto plan = OptimizeQuery(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  ASSERT_EQ((*plan)->kind, PlanNode::Kind::kRelationalJoin);
  EXPECT_FALSE((*plan)->hash_keys.empty());
  PlanExecutor executor(&catalog_, &source_);
  auto result = executor.Execute(**plan, q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto reference = ReferenceExecute(q, catalog_, {});
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(Rendered(*reference), std::multiset<std::string>{"[2, 20]"});
  EXPECT_EQ(Rendered(*result), Rendered(*reference));
}

TEST_F(OptimizerTest, OrderByTwoKeysPutsNullFirstAndKeepsTiesInInputOrder) {
  Schema schema;
  schema.AddColumn(Column{"t", "a", ValueType::kString});
  schema.AddColumn(Column{"t", "b", ValueType::kInt64});
  schema.AddColumn(Column{"t", "id", ValueType::kInt64});
  auto table = std::make_unique<Table>("t", schema);
  // (a, b) per id; ids 1/5, 2/4 and 3/7 tie on both keys.
  const std::vector<std::pair<Value, Value>> keys = {
      {Value::Str("y"), Value::Int(2)}, {Value::Null(), Value::Int(5)},
      {Value::Str("x"), Value::Int(2)}, {Value::Str("y"), Value::Int(1)},
      {Value::Str("x"), Value::Int(2)}, {Value::Null(), Value::Int(5)},
      {Value::Str("x"), Value::Null()}, {Value::Str("y"), Value::Int(1)}};
  for (size_t id = 0; id < keys.size(); ++id) {
    ASSERT_TRUE(table
                    ->Insert({keys[id].first, keys[id].second,
                              Value::Int(static_cast<int64_t>(id))})
                    .ok());
  }
  ASSERT_TRUE(catalog_.AddTable(std::move(table)).ok());
  FederatedQuery q;
  q.relations = {{"t", "t"}};
  q.output_columns = {"t.id", "t.a", "t.b"};
  q.order_by = {"t.a", "t.b"};

  auto plan = OptimizeQuery(q);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  PlanExecutor executor(&catalog_, &source_);
  auto result = executor.Execute(**plan, q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto reference = ReferenceExecute(q, catalog_, {});
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  // NULL sorts before every value; equal keys keep the scan's order.
  const std::vector<int64_t> expected = {1, 5, 6, 2, 4, 3, 7, 0};
  for (const ExecutionResult* out : {&*result, &*reference}) {
    std::vector<int64_t> ids;
    for (const Row& row : out->rows) ids.push_back(row[0].AsInt());
    EXPECT_EQ(ids, expected);
  }
}

TEST_F(OptimizerTest, ExplainRendering) {
  FederatedQuery q = MultiJoinQuery();
  auto plan = OptimizeQuery(q);
  ASSERT_TRUE(plan.ok());
  const std::string text = (*plan)->ToString(q);
  EXPECT_NE(text.find("ForeignJoin mercury"), std::string::npos);
  EXPECT_NE(text.find("Scan student"), std::string::npos);
  EXPECT_NE(text.find("Scan faculty"), std::string::npos);
}

TEST_F(OptimizerTest, ReportCountersPopulated) {
  FederatedQuery q = MultiJoinQuery();
  StatsRegistry registry;
  ASSERT_TRUE(ComputeExactStats(q, catalog_, *engine_, registry).ok());
  Enumerator enumerator(&catalog_, &registry, engine_->num_documents(),
                        engine_->max_search_terms(), EnumeratorOptions{});
  ASSERT_TRUE(enumerator.Optimize(q).ok());
  EXPECT_GT(enumerator.report().join_tasks, 0u);
  EXPECT_GT(enumerator.report().plans_generated, 0u);
  EXPECT_GT(enumerator.report().plans_retained, 0u);
}

TEST_F(OptimizerTest, MissingStatsIsAnError) {
  FederatedQuery q = SingleJoinQuery();
  StatsRegistry empty;
  Enumerator enumerator(&catalog_, &empty, engine_->num_documents(),
                        engine_->max_search_terms(), EnumeratorOptions{});
  EXPECT_FALSE(enumerator.Optimize(q).ok());
}

TEST_F(OptimizerTest, UnknownTableIsAnError) {
  FederatedQuery q = SingleJoinQuery();
  q.relations[0].table_name = "nope";
  StatsRegistry registry;
  Enumerator enumerator(&catalog_, &registry, engine_->num_documents(),
                        engine_->max_search_terms(), EnumeratorOptions{});
  EXPECT_EQ(enumerator.Optimize(q).status().code(), StatusCode::kNotFound);
}

TEST_F(OptimizerTest, SemiJoinOutputChoosesDocSideMethods) {
  // Q2-style: project only docids.
  FederatedQuery q;
  q.relations = {{"student", "student"}};
  q.text = MercuryDecl();
  q.has_text_relation = true;
  q.relational_predicates.push_back(
      Eq(Col("student.advisor"), Lit(Value::Str("Garcia"))));
  q.text_selections = {{"text", "title"}};
  q.text_joins = {{"student.name", "author"}};
  q.output_columns = {"mercury.docid"};
  auto plan = OptimizeQuery(q);
  ASSERT_TRUE(plan.ok());
  PlanExecutor executor(&catalog_, &source_);
  auto result = executor.Execute(**plan, q);
  ASSERT_TRUE(result.ok());
  auto reference = ReferenceExecute(q, catalog_, engine_->documents());
  ASSERT_TRUE(reference.ok());
  // Docid multiplicity may differ between SJ (distinct docs) and pair-wise
  // methods; compare distinct docids, the paper's semi-join semantics.
  std::set<std::string> got, want;
  for (const Row& row : result->rows) got.insert(row[0].AsString());
  for (const Row& row : reference->rows) want.insert(row[0].AsString());
  EXPECT_EQ(got, want);
}

}  // namespace
}  // namespace textjoin
