// Multi-relation plan parity: over random 2-3-relation scenarios with equi
// and theta join conjuncts, every plan the executor runs — the optimizer's
// choice, each of the six forced foreign-join methods, and hand-built
// plans with a probe node over a relational join and a relational join
// above the foreign join — returns ReferenceExecute's row multiset, and
// the same rows, in the same order, and the same meter at parallelism 1,
// 4 and 8. The executor carries row-id sets of several parts between
// these nodes (DESIGN.md §14), so this is where multi-part grouping,
// matching and gathering meet the oracle. The docid-only variant projects
// the text side alone, the shape SJ answers as a semi-join, so its rows
// are compared as sets; a relational join above the foreign join must
// still see the outer columns its conjuncts read.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "connector/remote_text_source.h"
#include "core/enumerator.h"
#include "core/executor.h"
#include "core/statistics.h"
#include "workload/scenario.h"

namespace textjoin {
namespace {

/// One generated scenario, its query, and the pieces of the query the
/// hand-built plans need.
struct ParityCase {
  ScenarioConfig config;
  Scenario scenario;
  FederatedQuery query;
  size_t num_relations = 2;
  /// r0-r1 conjuncts as hash keys and residual expressions.
  std::vector<JoinKey> keys01;
  std::vector<ExprPtr> residual01;
  /// Conjuncts between r2 and the others (three relations only).
  std::vector<JoinKey> keys2;
  std::vector<ExprPtr> residual2;
};

std::string Name(const char* prefix, size_t i) {
  std::string name = prefix;
  name += std::to_string(i);
  return name;
}

/// Adds `lhs = rhs` (an equi conjunct, also a hash key) or `lhs <> rhs`
/// on the g columns (a theta conjunct) between two relations.
void AddConjunct(Rng& rng, FederatedQuery& query, const std::string& left,
                 const std::string& right, std::vector<JoinKey>& keys,
                 std::vector<ExprPtr>& residual) {
  if (rng.Bernoulli(0.5)) {
    query.relational_predicates.push_back(
        Eq(Col(left + ".k"), Col(right + ".k")));
    keys.push_back({left + ".k", right + ".k"});
  } else {
    query.relational_predicates.push_back(
        Cmp(CompareOp::kNe, Col(left + ".g"), Col(right + ".g")));
    residual.push_back(
        Cmp(CompareOp::kNe, Col(left + ".g"), Col(right + ".g")));
  }
}

ParityCase MakeCase(uint64_t seed) {
  Rng rng(seed);
  ParityCase pc;
  ScenarioConfig& config = pc.config;
  config.seed = seed * 7919 + 17;
  config.num_documents = static_cast<size_t>(rng.Uniform(80, 300));
  config.filler_vocabulary = 100;
  pc.num_relations = static_cast<size_t>(rng.Uniform(2, 3));
  for (size_t r = 0; r < pc.num_relations; ++r) {
    config.relations.push_back(
        {Name("r", r),
         static_cast<size_t>(rng.Uniform(3, 12)),
         {{"k", static_cast<size_t>(rng.Uniform(2, 4))},
          {"g", static_cast<size_t>(rng.Uniform(2, 3))}}});
  }
  // Text join predicates on r0 and r1; r2 carries none, so the optimizer
  // may join it above the foreign join. Few values, each planted into
  // 15-35% of the documents, so that independently placed predicates of
  // different relations still meet in some documents.
  const char* fields[] = {"title", "author"};
  const size_t num_preds = static_cast<size_t>(rng.Uniform(1, 3));
  for (size_t p = 0; p < num_preds; ++p) {
    const size_t num_distinct = static_cast<size_t>(rng.Uniform(2, 4));
    const double s = rng.Bernoulli(0.7) ? 1.0 : 0.5;
    const double matching =
        std::round(s * static_cast<double>(num_distinct));
    const double f_max = matching *
                         static_cast<double>(config.num_documents) /
                         (2.0 * static_cast<double>(num_distinct));
    config.predicates.push_back({Name("r", p % 2), Name("c", p),
                                 fields[rng.Uniform(0, 1)], num_distinct, s,
                                 f_max * (0.3 + 0.4 * rng.NextDouble())});
  }
  if (rng.Bernoulli(0.6)) {
    config.selections.push_back(
        {"seltermx", "title",
         static_cast<size_t>(rng.Uniform(
             static_cast<int64_t>(config.num_documents) / 3,
             static_cast<int64_t>(config.num_documents) / 2))});
  }
  auto scenario = BuildScenario(config);
  TEXTJOIN_CHECK(scenario.ok(), "%s", scenario.status().ToString().c_str());
  pc.scenario = std::move(*scenario);

  FederatedQuery& query = pc.query;
  for (size_t r = 0; r < pc.num_relations; ++r) {
    query.relations.push_back({Name("r", r), Name("r", r)});
  }
  query.text = pc.scenario.text;
  query.has_text_relation = true;
  for (const SelectionSpec& sel : config.selections) {
    query.text_selections.push_back({sel.term, sel.field});
  }
  for (const PredicateSpec& pred : config.predicates) {
    query.text_joins.push_back({pred.relation + "." + pred.column,
                                pred.field});
  }
  AddConjunct(rng, query, "r0", "r1", pc.keys01, pc.residual01);
  if (pc.num_relations == 3) {
    AddConjunct(rng, query, rng.Bernoulli(0.5) ? "r0" : "r1", "r2", pc.keys2,
                pc.residual2);
  }
  if (rng.Bernoulli(0.5)) {
    query.output_columns = {"r0.c0", query.text.alias + ".docid"};
    if (pc.num_relations == 3) query.output_columns.push_back("r2.k");
  }
  return pc;
}

/// One execution's observable output.
struct Run {
  std::vector<std::string> rows;  ///< In output order.
  AccessMeter meter;
};

Run Execute(const ParityCase& pc, const PlanNode& plan, int parallelism) {
  RemoteTextSource source(pc.scenario.engine.get());
  ExecutorOptions options;
  options.parallelism = parallelism;
  PlanExecutor executor(pc.scenario.catalog.get(), &source, options);
  auto result = executor.Execute(plan, pc.query);
  TEXTJOIN_CHECK(result.ok(), "%s", result.status().ToString().c_str());
  Run run;
  for (const Row& row : result->rows) run.rows.push_back(RowToString(row));
  run.meter = source.meter();
  return run;
}

/// The rows as a multiset, or, when `distinct`, with duplicates dropped.
std::multiset<std::string> Observed(const std::vector<std::string>& rows,
                                    bool distinct) {
  std::multiset<std::string> out;
  for (const std::string& row : rows) {
    if (!distinct || out.count(row) == 0) out.insert(row);
  }
  return out;
}

/// Runs `plan` at parallelism 1, 4 and 8: the observed rows must equal the
/// reference's, and rows and meter must not depend on the parallelism.
void ExpectParity(const ParityCase& pc, const PlanNode& plan,
                  const std::multiset<std::string>& reference, bool distinct,
                  const std::string& label) {
  const std::string context = label + "\n" + plan.ToString(pc.query);
  const Run serial = Execute(pc, plan, 1);
  EXPECT_EQ(Observed(serial.rows, distinct), reference) << context;
  for (int parallelism : {4, 8}) {
    const Run parallel = Execute(pc, plan, parallelism);
    EXPECT_EQ(parallel.rows, serial.rows)
        << context << "parallelism " << parallelism;
    EXPECT_EQ(parallel.meter, serial.meter)
        << context << "parallelism " << parallelism
        << "\n  parallel: " << parallel.meter.ToString()
        << "\n  serial:   " << serial.meter.ToString();
  }
}

std::vector<ExprPtr> Clones(const std::vector<ExprPtr>& exprs) {
  std::vector<ExprPtr> out;
  for (const ExprPtr& e : exprs) out.push_back(e->Clone());
  return out;
}

std::shared_ptr<PlanNode> Scan(const ParityCase& pc, size_t r) {
  auto table = pc.scenario.catalog->GetTable(Name("r", r));
  TEXTJOIN_CHECK(table.ok(), "table");
  return MakeScanNode(Name("r", r), Name("r", r), (*table)->schema(), {});
}

/// Runs every plan of `pc` against ReferenceExecute: the optimizer's
/// choice, each forced method and the hand-built plans. `distinct`
/// compares rows as sets. `sj_applies` asserts that forced SJ finds a
/// plan rather than refusing the query.
void ExpectEveryPlanMatches(const ParityCase& pc, bool distinct,
                            bool sj_applies) {
  const FederatedQuery& query = pc.query;
  auto reference = ReferenceExecute(query, *pc.scenario.catalog,
                                    pc.scenario.engine->documents());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  std::vector<std::string> reference_rows;
  for (const Row& row : reference->rows) {
    reference_rows.push_back(RowToString(row));
  }
  const std::multiset<std::string> expected =
      Observed(reference_rows, distinct);

  StatsRegistry registry;
  ASSERT_TRUE(ComputeExactStats(query, *pc.scenario.catalog,
                                *pc.scenario.engine, registry)
                  .ok());
  const auto optimize = [&](EnumeratorOptions options) {
    Enumerator enumerator(pc.scenario.catalog.get(), &registry,
                          pc.scenario.engine->num_documents(),
                          pc.scenario.engine->max_search_terms(), options);
    return enumerator.Optimize(query);
  };

  // The optimizer's choice, then each of the six methods forced.
  auto chosen = optimize(EnumeratorOptions{});
  ASSERT_TRUE(chosen.ok()) << chosen.status().ToString();
  ExpectParity(pc, **chosen, expected, distinct, "chosen");
  for (JoinMethodKind method :
       {JoinMethodKind::kTS, JoinMethodKind::kRTP, JoinMethodKind::kSJ,
        JoinMethodKind::kSJRTP, JoinMethodKind::kPTS, JoinMethodKind::kPRTP}) {
    EnumeratorOptions options;
    options.forced_method = method;
    auto forced = optimize(options);
    if (!forced.ok()) {
      // Inapplicable to this query's shape (e.g. SJ with outer columns).
      EXPECT_EQ(forced.status().code(), StatusCode::kInvalidArgument);
      EXPECT_FALSE(sj_applies && method == JoinMethodKind::kSJ)
          << "forced SJ refused: " << forced.status().ToString();
      continue;
    }
    ExpectParity(pc, **forced, expected, distinct,
                 std::string("forced ") + JoinMethodName(method));
  }

  // Hand-built: a probe over r0 ⋈ r1 below the foreign join, and r2
  // joined above it.
  std::vector<size_t> all_preds(query.text_joins.size());
  for (size_t p = 0; p < all_preds.size(); ++p) all_preds[p] = p;
  for (const MethodChoice& method :
       {MethodChoice{JoinMethodKind::kTS, 0, 0.0},
        MethodChoice{JoinMethodKind::kPRTP, 0b1, 0.0}}) {
    PlanNodePtr plan = MakeProbeNode(
        MakeRelationalJoinNode(Scan(pc, 0), Scan(pc, 1),
                               Clones(pc.residual01), pc.keys01),
        all_preds);
    plan = MakeForeignJoinNode(plan, query, method,
                               /*left_columns_needed=*/true);
    if (pc.num_relations == 3) {
      plan = MakeRelationalJoinNode(plan, Scan(pc, 2), Clones(pc.residual2),
                                    pc.keys2);
    }
    ExpectParity(pc, *plan, expected, distinct,
                 std::string("hand-built ") + JoinMethodName(method.method));
  }
}

class PlanParityTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PlanParityTest, EveryPlanMatchesReferenceAtEveryParallelism) {
  ExpectEveryPlanMatches(MakeCase(GetParam()), /*distinct=*/false,
                         /*sj_applies=*/false);
}

TEST_P(PlanParityTest, DocidOnlyPlansMatchReferenceAsSets) {
  ParityCase pc = MakeCase(GetParam());
  pc.query.output_columns = {pc.query.text.alias + ".docid"};
  // Nothing reads an outer column above the foreign join placed over
  // every relation, so SJ applies there.
  ExpectEveryPlanMatches(pc, /*distinct=*/true, /*sj_applies=*/true);
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, PlanParityTest,
                         ::testing::Range<uint64_t>(1, 25));

}  // namespace
}  // namespace textjoin
