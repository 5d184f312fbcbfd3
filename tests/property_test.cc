#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <iterator>
#include <map>
#include <memory>
#include <numeric>
#include <random>
#include <set>
#include <string>

#include "common/random.h"
#include "common/text_match.h"
#include "connector/remote_text_source.h"
#include "core/enumerator.h"
#include "core/executor.h"
#include "core/join_methods.h"
#include "core/pipeline.h"
#include "core/statistics.h"
#include "relational/join.h"
#include "relational/table.h"
#include "tests/support/reference_expression.h"
#include "tests/test_util.h"
#include "workload/scenario.h"

namespace textjoin {
namespace {

/// Builds a random-but-valid scenario configuration from a seed.
ScenarioConfig RandomConfig(uint64_t seed) {
  Rng rng(seed);
  ScenarioConfig config;
  config.seed = seed * 7919 + 13;
  config.num_documents = static_cast<size_t>(rng.Uniform(50, 600));
  config.relations = {{"r", static_cast<size_t>(rng.Uniform(5, 120)), {}}};
  const int num_preds = static_cast<int>(rng.Uniform(1, 3));
  const char* fields[] = {"title", "author"};
  for (int p = 0; p < num_preds; ++p) {
    const size_t num_distinct = static_cast<size_t>(rng.Uniform(1, 30));
    double s = rng.NextDouble();
    const auto matching = static_cast<size_t>(
        std::llround(s * static_cast<double>(num_distinct)));
    double f = 0.0;
    if (matching == 0) {
      s = 0.0;  // no matching values => fanout must be zero
    } else {
      // fanout >= selectivity, and per-value doc count bounded by D/2.
      const double f_max = static_cast<double>(matching) *
                           static_cast<double>(config.num_documents) /
                           (2.0 * static_cast<double>(num_distinct));
      f = std::min(s + rng.NextDouble() * 3.0, std::max(s, f_max));
    }
    // Two-step concat: GCC 12's -Wrestrict misfires on
    // operator+(const char*, std::string&&) at -O2, and the strict CI leg
    // builds with -Werror.
    std::string column = "c";
    column += std::to_string(p);
    config.predicates.push_back(
        {"r", std::move(column), fields[p % 2], num_distinct, s, f});
  }
  if (rng.Bernoulli(0.6)) {
    config.selections.push_back(
        {"seltermx", "title",
         static_cast<size_t>(
             rng.Uniform(0, static_cast<int64_t>(config.num_documents) / 4))});
  }
  if (num_preds == 2 && rng.Bernoulli(0.5)) {
    config.joints.push_back({"r", {0, 1}, rng.NextDouble() * 0.5, 1.0});
  }
  config.filler_vocabulary = 100;
  return config;
}

/// The canonical pair set of a foreign-join result (outer row rendered,
/// docid) — robust to which columns a method populates.
std::set<std::pair<std::string, std::string>> Pairs(
    const ForeignJoinResult& result, size_t left_width) {
  std::set<std::pair<std::string, std::string>> out;
  for (const Row& row : result.rows) {
    Row left(row.begin(), row.begin() + static_cast<ptrdiff_t>(left_width));
    out.emplace(RowToString(left), row.at(left_width).AsString());
  }
  return out;
}

/// Reference pair set computed by brute force over the corpus.
std::set<std::pair<std::string, std::string>> ReferencePairs(
    const ForeignJoinSpec& spec, const std::vector<Row>& rows,
    const TextEngine& engine) {
  std::set<std::pair<std::string, std::string>> out;
  std::vector<size_t> join_cols;
  for (const TextJoinPredicate& pred : spec.joins) {
    auto idx = spec.left_schema.Resolve(pred.column_ref);
    TEXTJOIN_CHECK(idx.ok(), "resolve");
    join_cols.push_back(*idx);
  }
  for (const Document& doc : engine.documents()) {
    bool sel_ok = true;
    for (const TextSelection& sel : spec.selections) {
      if (!TermMatchesFieldText(
              sel.term, JoinFieldValues(doc.FieldValues(sel.field)))) {
        sel_ok = false;
        break;
      }
    }
    if (!sel_ok) continue;
    for (const Row& row : rows) {
      bool ok = true;
      for (size_t p = 0; p < spec.joins.size(); ++p) {
        const Value& v = row.at(join_cols[p]);
        if (v.type() != ValueType::kString ||
            !TermMatchesFieldText(
                v.AsString(),
                JoinFieldValues(doc.FieldValues(spec.joins[p].field)))) {
          ok = false;
          break;
        }
      }
      if (ok) out.emplace(RowToString(row), doc.docid);
    }
  }
  return out;
}

/// PROPERTY: every join method produces exactly the reference (tuple,
/// docid) pairs, on randomized corpora/relations/predicates — the paper's
/// methods are semantically interchangeable, differing only in cost.
class MethodEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MethodEquivalenceTest, AllMethodsMatchBruteForce) {
  const ScenarioConfig config = RandomConfig(GetParam());
  auto scenario = BuildScenario(config);
  ASSERT_TRUE(scenario.ok()) << scenario.status().ToString();
  RemoteTextSource source(scenario->engine.get());
  Table* table = *scenario->catalog->GetTable("r");

  ForeignJoinSpec spec;
  spec.left_schema = table->schema();
  spec.text = scenario->text;
  for (const SelectionSpec& sel : config.selections) {
    spec.selections.push_back({sel.term, sel.field});
  }
  for (size_t p = 0; p < config.predicates.size(); ++p) {
    spec.joins.push_back({"r." + config.predicates[p].column,
                          config.predicates[p].field});
  }

  const auto expected = ReferencePairs(spec, table->rows(), *scenario->engine);
  const size_t left_width = table->schema().num_columns();
  const PredicateMask all = FullMask(spec.joins.size());

  // TS always applies.
  {
    auto result =
        ExecuteForeignJoin(JoinMethodKind::kTS, spec, table->rows(), source);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(Pairs(*result, left_width), expected) << "TS seed "
                                                    << GetParam();
  }
  // RTP requires selections.
  if (!spec.selections.empty()) {
    auto result =
        ExecuteForeignJoin(JoinMethodKind::kRTP, spec, table->rows(), source);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(Pairs(*result, left_width), expected) << "RTP seed "
                                                    << GetParam();
  }
  // SJ+RTP requires join predicates (always true here).
  {
    auto result = ExecuteForeignJoin(JoinMethodKind::kSJRTP, spec,
                                     table->rows(), source);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(Pairs(*result, left_width), expected) << "SJ+RTP seed "
                                                    << GetParam();
  }
  // Probing methods: try every probe mask.
  for (PredicateMask mask = 1; mask <= all; ++mask) {
    auto pts = ExecuteForeignJoin(JoinMethodKind::kPTS, spec, table->rows(),
                                  source, mask);
    ASSERT_TRUE(pts.ok());
    EXPECT_EQ(Pairs(*pts, left_width), expected)
        << "P+TS mask " << MaskToString(mask) << " seed " << GetParam();
    auto prtp = ExecuteForeignJoin(JoinMethodKind::kPRTP, spec, table->rows(),
                                   source, mask);
    ASSERT_TRUE(prtp.ok());
    EXPECT_EQ(Pairs(*prtp, left_width), expected)
        << "P+RTP mask " << MaskToString(mask) << " seed " << GetParam();
  }
  // SJ (doc-side semi-join): distinct docids must match the projection of
  // the reference pairs.
  {
    ForeignJoinSpec sj_spec = spec;
    sj_spec.left_columns_needed = false;
    sj_spec.need_document_fields = false;
    auto result = ExecuteForeignJoin(JoinMethodKind::kSJ, sj_spec,
                                     table->rows(), source);
    ASSERT_TRUE(result.ok());
    std::set<std::string> got;
    for (const Row& row : result->rows) {
      got.insert(row.at(left_width).AsString());
    }
    std::set<std::string> want;
    for (const auto& [left, docid] : expected) want.insert(docid);
    EXPECT_EQ(got, want) << "SJ seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, MethodEquivalenceTest,
                         ::testing::Range<uint64_t>(1, 21));

/// PROPERTY: the probe reducer never changes the final answer — it only
/// removes tuples that cannot join (Section 6: probes as semi-joins are
/// answer-preserving).
class ProbeReducerTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ProbeReducerTest, ReduceIsAnswerPreserving) {
  const ScenarioConfig config = RandomConfig(GetParam() + 1000);
  auto scenario = BuildScenario(config);
  ASSERT_TRUE(scenario.ok());
  RemoteTextSource source(scenario->engine.get());
  Table* table = *scenario->catalog->GetTable("r");

  ForeignJoinSpec spec;
  spec.left_schema = table->schema();
  spec.text = scenario->text;
  for (const SelectionSpec& sel : config.selections) {
    spec.selections.push_back({sel.term, sel.field});
  }
  for (size_t p = 0; p < config.predicates.size(); ++p) {
    spec.joins.push_back({"r." + config.predicates[p].column,
                          config.predicates[p].field});
  }
  const size_t left_width = table->schema().num_columns();
  const PredicateMask all = FullMask(spec.joins.size());
  for (PredicateMask mask = 1; mask <= all; ++mask) {
    auto survivors =
        ProbeSemiJoinReduce(spec, table->rows(), source, mask);
    ASSERT_TRUE(survivors.ok());
    EXPECT_LE(survivors->size(), table->num_rows());
    auto full = ExecuteForeignJoin(JoinMethodKind::kTS, spec, table->rows(),
                                   source);
    auto reduced =
        ExecuteForeignJoin(JoinMethodKind::kTS, spec, *survivors, source);
    ASSERT_TRUE(full.ok());
    ASSERT_TRUE(reduced.ok());
    EXPECT_EQ(Pairs(*full, left_width), Pairs(*reduced, left_width))
        << "mask " << MaskToString(mask) << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, ProbeReducerTest,
                         ::testing::Range<uint64_t>(1, 11));

/// PROPERTY: sampled statistics converge to the exact ones as the sample
/// grows to cover the whole column.
class SamplerConvergenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SamplerConvergenceTest, FullSampleIsExact) {
  const ScenarioConfig config = RandomConfig(GetParam() + 2000);
  auto scenario = BuildScenario(config);
  ASSERT_TRUE(scenario.ok());
  RemoteTextSource source(scenario->engine.get());
  Table* table = *scenario->catalog->GetTable("r");

  FederatedQuery query;
  query.relations = {{"r", "r"}};
  query.text = scenario->text;
  query.has_text_relation = true;
  for (size_t p = 0; p < config.predicates.size(); ++p) {
    query.text_joins.push_back({"r." + config.predicates[p].column,
                                config.predicates[p].field});
  }
  StatsRegistry registry;
  ASSERT_TRUE(ComputeExactStats(query, *scenario->catalog, *scenario->engine,
                                registry)
                  .ok());
  Rng rng(GetParam());
  for (size_t p = 0; p < config.predicates.size(); ++p) {
    auto exact = registry.GetTextJoinStats(query.text_joins[p].column_ref,
                                           query.text_joins[p].field);
    ASSERT_TRUE(exact.ok());
    auto sampled = EstimatePredicateStats(
        *table, p, source, query.text_joins[p].field,
        /*sample_size=*/table->num_rows() + 10, rng);
    ASSERT_TRUE(sampled.ok());
    EXPECT_NEAR(sampled->selectivity, exact->selectivity, 1e-9);
    EXPECT_NEAR(sampled->fanout, exact->fanout, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, SamplerConvergenceTest,
                         ::testing::Range<uint64_t>(1, 9));

/// PROPERTY: the optimizer-chosen plan for a randomized single-join query
/// returns the reference answer regardless of which method it picks.
class OptimizedPlanTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(OptimizedPlanTest, ChosenPlanMatchesReference) {
  const ScenarioConfig config = RandomConfig(GetParam() + 3000);
  auto scenario = BuildScenario(config);
  ASSERT_TRUE(scenario.ok());
  RemoteTextSource source(scenario->engine.get());

  FederatedQuery query;
  query.relations = {{"r", "r"}};
  query.text = scenario->text;
  query.has_text_relation = true;
  for (const SelectionSpec& sel : config.selections) {
    query.text_selections.push_back({sel.term, sel.field});
  }
  for (size_t p = 0; p < config.predicates.size(); ++p) {
    query.text_joins.push_back({"r." + config.predicates[p].column,
                                config.predicates[p].field});
  }
  StatsRegistry registry;
  ASSERT_TRUE(ComputeExactStats(query, *scenario->catalog, *scenario->engine,
                                registry)
                  .ok());
  Enumerator enumerator(scenario->catalog.get(), &registry,
                        scenario->engine->num_documents(),
                        scenario->engine->max_search_terms(),
                        EnumeratorOptions{});
  auto plan = enumerator.Optimize(query);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  PlanExecutor executor(scenario->catalog.get(), &source);
  auto result = executor.Execute(**plan, query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto reference =
      ReferenceExecute(query, *scenario->catalog, scenario->engine->documents());
  ASSERT_TRUE(reference.ok());
  std::multiset<std::string> got, want;
  for (const Row& row : result->rows) got.insert(RowToString(row));
  for (const Row& row : reference->rows) want.insert(RowToString(row));
  EXPECT_EQ(got, want) << "seed " << GetParam() << "\nplan:\n"
                       << (*plan)->ToString(query);
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, OptimizedPlanTest,
                         ::testing::Range<uint64_t>(1, 16));

// ----------------------------------------------------------------------
// Canonical cache keys (text/query.h CanonicalKey, used by the
// cross-query cache): for random Boolean queries, every semantics-
// preserving rewrite — reordering, duplication and same-kind re-nesting
// of conjuncts/disjuncts — maps to the SAME key, and a minimal semantic
// mutation maps to a DIFFERENT key.

class CanonicalKeyPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CanonicalKeyPropertyTest, KeyInvariantUnderSemanticPreservingRewrites) {
  std::mt19937_64 rng(GetParam() * 2654435761u + 17);
  for (int round = 0; round < 20; ++round) {
    const TextQueryPtr query = textjoin::testing::RandomTextQuery(rng);
    const std::string key = query->CanonicalKey();
    for (int rewrite = 0; rewrite < 4; ++rewrite) {
      const TextQueryPtr scrambled =
          textjoin::testing::ScrambleTextQuery(*query, rng);
      EXPECT_EQ(scrambled->CanonicalKey(), key)
          << "original: " << query->ToString()
          << "\nscrambled: " << scrambled->ToString();
    }
    // Clone is trivially key-preserving.
    EXPECT_EQ(query->Clone()->CanonicalKey(), key);
  }
}

TEST_P(CanonicalKeyPropertyTest, KeyChangesUnderSemanticMutation) {
  std::mt19937_64 rng(GetParam() * 40503u + 5);
  for (int round = 0; round < 20; ++round) {
    const TextQueryPtr query = textjoin::testing::RandomTextQuery(rng);
    bool done = false;
    const TextQueryPtr mutated =
        textjoin::testing::MutateFirstTerm(*query, &done);
    ASSERT_TRUE(done) << "every generated query contains a term";
    EXPECT_NE(mutated->CanonicalKey(), query->CanonicalKey())
        << "original: " << query->ToString()
        << "\nmutated: " << mutated->ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanonicalKeyPropertyTest,
                         ::testing::Range<uint64_t>(1, 11));

// ----------------------------------------------------------------------
// Prepared matching and hashed grouping (DESIGN.md §14) against their
// token-by-token and std::map statements.

/// Random text drawn from a small mixed-case vocabulary (so phrases often
/// recur), joined by punctuation; sometimes empty, sometimes only
/// punctuation, sometimes with a kValueSeparator inside.
std::string RandomText(std::mt19937_64& rng, size_t max_tokens) {
  static const char* const kWords[] = {"Belief", "update", "UPDATE", "kb2",
                                       "x9y",    "a",      "ab",     "Smith"};
  static const char* const kGaps[] = {" ", ", ", "-", "!", "..", "\t",
                                      "  ", "_"};
  std::string text;
  const size_t tokens = rng() % (max_tokens + 1);
  for (size_t i = 0; i < tokens; ++i) {
    if (i != 0 || rng() % 4 == 0) text += kGaps[rng() % std::size(kGaps)];
    text += rng() % 12 == 0 ? std::string(1, kValueSeparator)
                            : std::string(kGaps[rng() % std::size(kGaps)]);
    text += kWords[rng() % std::size(kWords)];
  }
  if (rng() % 3 == 0) text += kGaps[rng() % std::size(kGaps)];
  return text;
}

/// Maximal alphanumeric runs, lowercased, written out independently of
/// common/text_match: TokenizeText shares its tokenizer with the prepared
/// form, so the reference below is only independent once this pins it.
std::vector<std::string> NaiveTokens(const std::string& text) {
  std::vector<std::string> tokens;
  std::string token;
  for (const char c : text + " ") {
    if (std::isalnum(static_cast<unsigned char>(c)) != 0) {
      token += static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    } else if (!token.empty()) {
      tokens.push_back(token);
      token.clear();
    }
  }
  return tokens;
}

/// The reference semantics: `term`'s tokens occur consecutively within one
/// value of the flattened field.
bool ReferenceMatch(const std::string& term,
                    const std::vector<std::string>& values) {
  const std::vector<std::string> term_tokens = TokenizeText(term);
  for (const std::string& value : SplitFieldValues(JoinFieldValues(values))) {
    if (TokensContainPhrase(TokenizeText(value), term_tokens)) return true;
  }
  return false;
}

std::vector<std::string> RandomValues(std::mt19937_64& rng) {
  std::vector<std::string> values(rng() % 4);
  for (std::string& value : values) value = RandomText(rng, 5);
  return values;
}

/// One part over `rows` (each of `schema`) holding the tuples `ids`, drawn
/// at random from the row vector itself or from a Table filled with the
/// same rows through InsertUnchecked, so a column holding a number is not
/// coded and the others are. Every other table is first filled with the
/// rows in reverse and cleared, so its codes are numbered afresh. `tables`
/// keeps the tables alive.
RowIdSet RandomPart(std::mt19937_64& rng, const Schema& schema,
                    const std::vector<Row>& rows, std::vector<size_t> ids,
                    std::vector<std::unique_ptr<Table>>& tables) {
  if (rng() % 2 == 0) return RowIdSet::Borrowed(schema, rows, std::move(ids));
  auto table = std::make_unique<Table>("t", schema);
  if (rng() % 2 == 0) {
    for (auto row = rows.rbegin(); row != rows.rend(); ++row) {
      table->InsertUnchecked(*row);
    }
    table->Clear();
  }
  for (const Row& row : rows) table->InsertUnchecked(row);
  tables.push_back(std::move(table));
  return RowIdSet::Borrowed(schema, *tables.back(), std::move(ids));
}

class PreparedMatchPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

TEST_P(PreparedMatchPropertyTest, AgreesWithTokenReference) {
  std::mt19937_64 rng(GetParam() * 7919u + 3);
  for (int round = 0; round < 400; ++round) {
    const std::vector<std::string> values = RandomValues(rng);
    // Up to 7 tokens: longer than any value, so some phrases cannot fit.
    const std::string term = round % 25 == 0 ? "..." : RandomText(rng, 7);
    const std::string flattened = JoinFieldValues(values);
    const std::string prepared_field = PrepareFieldValues(values);
    std::string prepared_term;
    AppendPreparedTerm(term, prepared_term);
    ASSERT_EQ(TokenizeText(term), NaiveTokens(term)) << "term '" << term << "'";
    ASSERT_EQ(TokenizeText(flattened), NaiveTokens(flattened));
    const bool expected = ReferenceMatch(term, values);
    EXPECT_EQ(PreparedTermMatches(prepared_term, prepared_field), expected)
        << "term '" << term << "' field '" << flattened << "'";
    EXPECT_EQ(TermMatchesFieldText(term, flattened), expected);
  }
}

TEST_P(PreparedMatchPropertyTest, JoinTermMatcherAgreesWithTokenReference) {
  std::mt19937_64 rng(GetParam() * 104729u + 11);
  const std::vector<std::string> fields = {"title", "author", "title"};
  ForeignJoinSpec spec;
  spec.text = {"t", {"title", "author"}};
  for (size_t p = 0; p < fields.size(); ++p) {
    // Two-step concat (GCC 12 -Wrestrict; see RandomConfig).
    std::string column = "c";
    column += std::to_string(p);
    spec.left_schema.AddColumn(Column{"r", column, ValueType::kString});
    spec.joins.push_back({"r." + column, fields[p]});
  }
  auto rspec = pipeline::ResolveSpec(spec);
  ASSERT_TRUE(rspec.ok()) << rspec.status().ToString();
  for (int round = 0; round < 4; ++round) {
    // A column holds numbers in one round in three, so a table part has
    // coded and uncoded columns.
    std::vector<bool> numbers(fields.size());
    for (size_t p = 0; p < fields.size(); ++p) numbers[p] = rng() % 3 == 0;
    std::vector<Row> rows(12);
    for (Row& row : rows) {
      for (size_t p = 0; p < fields.size(); ++p) {
        const uint64_t kind = rng() % 8;
        row.push_back(kind == 0 ? Value::Null()
                      : kind == 1 && numbers[p]
                          ? Value::Int(7)
                          : Value::Str(RandomText(rng, 3)));
      }
    }
    // Every row once, some twice, in random order.
    std::vector<size_t> ids(rows.size());
    std::iota(ids.begin(), ids.end(), size_t{0});
    for (size_t r = 0; r < rows.size(); ++r) {
      if (rng() % 4 == 0) ids.push_back(r);
    }
    std::shuffle(ids.begin(), ids.end(), rng);
    std::vector<std::unique_ptr<Table>> tables;
    const RowIdSet tuples =
        RandomPart(rng, spec.left_schema, rows, ids, tables);
    std::vector<size_t> tuple_ids;  // A random subset, in random order.
    for (size_t t = 0; t < tuples.size(); ++t) {
      if (rng() % 3 != 0) tuple_ids.push_back(t);
    }
    std::shuffle(tuple_ids.begin(), tuple_ids.end(), rng);
    for (PredicateMask mask = 1; mask < 8; ++mask) {
      const pipeline::JoinTermMatcher all_rows(*rspec, tuples, mask);
      const pipeline::JoinTermMatcher some_rows(*rspec, tuples, tuple_ids,
                                                mask);
      for (int d = 0; d < 8; ++d) {
        Document doc;
        doc.docid = std::to_string(d);
        doc.fields["title"] = RandomValues(rng);
        doc.fields["author"] = RandomValues(rng);
        const std::vector<std::string> prepared = all_rows.PrepareDoc(doc);
        std::vector<bool> expected(tuples.size(), true);
        for (size_t t = 0; t < tuples.size(); ++t) {
          const Row& row = rows[ids[t]];
          for (size_t p = 0; p < fields.size(); ++p) {
            if ((mask & (1u << p)) == 0) continue;
            const Value& v = row[p];
            if (v.type() != ValueType::kString ||
                !ReferenceMatch(v.AsString(), doc.FieldValues(fields[p]))) {
              expected[t] = false;
            }
          }
          EXPECT_EQ(all_rows.Matches(t, prepared), expected[t])
              << "tuple " << t << " mask " << mask << " table "
              << (tuples.table(0) != nullptr);
        }
        for (size_t i = 0; i < tuple_ids.size(); ++i) {
          EXPECT_EQ(some_rows.Matches(i, prepared), expected[tuple_ids[i]]);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PreparedMatchPropertyTest,
                         ::testing::Range<uint64_t>(1, 11));

/// Up to `max_pairs - 1` random (left tuple, right tuple) pairs, in random
/// order and with repeats, joined into one set.
RowIdSet RandomPairs(std::mt19937_64& rng, const RowIdSet& left,
                     const RowIdSet& right, size_t max_pairs) {
  RowIdSet joined = RowIdSet::JoinOf(left, right);
  const size_t num_pairs = left.size() == 0 ? 0 : rng() % max_pairs;
  for (size_t i = 0; i < num_pairs; ++i) {
    const size_t l = rng() % left.size();
    const std::vector<size_t> r = {rng() % right.size()};
    joined.AppendJoined(left, l, right, r);
  }
  return joined;
}

class GroupRowsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

/// Tuples of 1-3 parts with few base rows each, so base rows repeat across
/// tuples; every part leads with an unused id column, so join columns are
/// not row positions, and the join columns of different parts interleave
/// in predicate order, so masks span parts. A part is a table's (its
/// string columns coded unless they hold a number) or a row vector's.
TEST_P(GroupRowsPropertyTest, MatchesOrderedMapReference) {
  std::mt19937_64 rng(GetParam() * 6151u + 29);
  // Small pools force duplicate keys; "a"/"ab"/"" and a high byte probe
  // the lexicographic order.
  static const char* const kPool[] = {"a", "ab", "", "B", "b", "\xff", "z"};
  for (int round = 0; round < 40; ++round) {
    const size_t num_parts = 1 + rng() % 3;
    std::vector<Schema> schemas(num_parts);
    std::vector<std::vector<Row>> base(num_parts);
    std::vector<std::string> join_refs;
    for (size_t p = 0; p < num_parts; ++p) {
      std::string part = "p";  // Two-step concat (see RandomConfig).
      part += std::to_string(p);
      schemas[p].AddColumn(Column{part, "id", ValueType::kInt64});
      const size_t string_columns = (p == 0 ? 1 : 0) + rng() % 2;
      for (size_t c = 0; c < string_columns; ++c) {
        std::string column = "c";
        column += std::to_string(c);
        schemas[p].AddColumn(Column{part, column, ValueType::kString});
        join_refs.push_back(part + "." + column);
      }
      base[p].resize(1 + rng() % 6);
      for (size_t r = 0; r < base[p].size(); ++r) {
        base[p][r].push_back(Value::Int(static_cast<int64_t>(r)));
        for (size_t c = 1; c < schemas[p].num_columns(); ++c) {
          const uint64_t kind = rng() % 10;
          base[p][r].push_back(kind == 0   ? Value::Null()
                               : kind == 1 ? Value::Int(3)
                                           : Value::Str(kPool[rng() % 7]));
        }
      }
    }
    std::shuffle(join_refs.begin(), join_refs.end(), rng);
    // Random tuples: each join pairs random earlier tuples with random
    // base rows of the next part, in random order.
    // Each part is a table's or a row vector's, over 1-8 random base rows.
    std::vector<std::unique_ptr<Table>> tables;
    const auto part = [&](size_t p) {
      std::vector<size_t> ids(1 + rng() % 8);
      for (size_t& id : ids) id = rng() % base[p].size();
      return RandomPart(rng, schemas[p], base[p], std::move(ids), tables);
    };
    RowIdSet tuples = part(0);
    for (size_t p = 1; p < num_parts; ++p) {
      const RowIdSet next = part(p);
      tuples = RandomPairs(rng, tuples, next, 60);
    }
    ForeignJoinSpec spec;
    spec.text = {"t", {"title"}};
    spec.left_schema = tuples.schema();
    for (const std::string& ref : join_refs) {
      spec.joins.push_back({ref, "title"});
    }
    auto rspec = pipeline::ResolveSpec(spec);
    ASSERT_TRUE(rspec.ok()) << rspec.status().ToString();
    const size_t num_preds = join_refs.size();
    const PredicateMask mask =
        static_cast<PredicateMask>(1 + rng() % ((1u << num_preds) - 1));
    // The reference: a std::map over the concatenated rows.
    std::map<std::vector<std::string>, std::vector<size_t>> reference;
    for (size_t t = 0; t < tuples.size(); ++t) {
      const Row row = tuples.Gather(t);
      std::vector<std::string> terms;
      bool all_strings = true;
      for (size_t p = 0; p < num_preds; ++p) {
        if ((mask & (1u << p)) == 0) continue;
        const Value& v = row[rspec->join_columns[p]];
        if (v.type() != ValueType::kString) {
          all_strings = false;
          break;
        }
        terms.push_back(v.AsString());
      }
      if (all_strings) reference[terms].push_back(t);
    }
    const pipeline::KeyGroups groups =
        pipeline::GroupRowsByTerms(*rspec, tuples, mask);
    ASSERT_EQ(groups.size(), reference.size())
        << "mask " << mask << " parts " << num_parts;
    size_t g = 0;
    for (const auto& [terms, tuple_indices] : reference) {
      EXPECT_EQ(groups.terms[g], terms) << "group " << g;
      EXPECT_EQ(groups.rows[g], tuple_indices) << "group " << g;
      ++g;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GroupRowsPropertyTest,
                         ::testing::Range<uint64_t>(1, 11));

/// A random value: NULL, ints and doubles that tie across types ("2" as
/// Int(2) and Real(2.0)), short strings, a string of digits, and a string
/// too long to be stored inline.
Value RandomValue(std::mt19937_64& rng) {
  switch (rng() % 9) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Int(1);
    case 2:
      return Value::Int(2);
    case 3:
      return Value::Real(2.0);
    case 4:
      return Value::Real(1.5);
    case 5:
      return Value::Str("a");
    case 6:
      return Value::Str("ab");
    case 7:
      return Value::Str("2");
    default:
      return Value::Str("a string well beyond the inline capacity");
  }
}

/// A cell of a dictionary-coded column: NULL, the empty string, strings
/// that differ only in case, a string of digits, and a string too long to
/// be stored inline.
Value RandomCell(std::mt19937_64& rng) {
  static const char* const kStrings[] = {
      "",  "a", "A", "ab", "AB",
      "2", "a string well beyond the inline capacity"};
  if (rng() % 6 == 0) return Value::Null();
  return Value::Str(kStrings[rng() % 7]);
}

/// A value compared with coded cells: a cell, a string no cell holds, or a
/// number equal to the digit string's number.
Value RandomProbeValue(std::mt19937_64& rng) {
  switch (rng() % 5) {
    case 0:
      return Value::Str("absent");
    case 1:
      return rng() % 2 == 0 ? Value::Int(2) : Value::Real(2.0);
    default:
      return RandomCell(rng);
  }
}

/// Draws a literal's value.
using ValueDraw = Value (*)(std::mt19937_64&);

/// A comparison or LIKE operand: a column or a literal.
ExprPtr RandomOperand(std::mt19937_64& rng,
                      const std::vector<std::string>& columns,
                      ValueDraw draw) {
  if (rng() % 2 == 0) return Col(columns[rng() % columns.size()]);
  return Lit(draw(rng));
}

/// A random predicate tree: the six comparisons and LIKE at the leaves,
/// AND, OR and NOT above them; literals are drawn by `draw`.
ExprPtr RandomPredicate(std::mt19937_64& rng,
                        const std::vector<std::string>& columns, int depth,
                        ValueDraw draw = RandomValue) {
  static const char* const kPatterns[] = {"a%", "%b", "_", "%", "2"};
  switch (rng() % (depth == 0 ? 2 : 5)) {
    case 0:
      return Cmp(static_cast<CompareOp>(rng() % 6),
                 RandomOperand(rng, columns, draw),
                 RandomOperand(rng, columns, draw));
    case 1:
      return Like(RandomOperand(rng, columns, draw), kPatterns[rng() % 5]);
    case 2:
    case 3: {
      std::vector<ExprPtr> children;
      const size_t n = 2 + rng() % 2;
      for (size_t i = 0; i < n; ++i) {
        children.push_back(RandomPredicate(rng, columns, depth - 1, draw));
      }
      return rng() % 2 == 0 ? And(std::move(children))
                            : Or(std::move(children));
    }
    default:
      return Not(RandomPredicate(rng, columns, depth - 1, draw));
  }
}

/// Appends `n` rows of RandomCell to `table` (whose columns are STRING),
/// each through Insert or InsertUnchecked at random; one unchecked row in
/// twenty puts a number in a string column, which stops it being coded.
void AppendRandomRows(std::mt19937_64& rng, Table& table, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    Row row;
    for (size_t c = 0; c < table.schema().num_columns(); ++c) {
      row.push_back(RandomCell(rng));
    }
    if (rng() % 2 == 0) {
      ASSERT_TRUE(table.Insert(std::move(row)).ok());
      continue;
    }
    if (rng() % 20 == 0) row[rng() % row.size()] = Value::Int(2);
    table.InsertUnchecked(std::move(row));
  }
}

/// A set of `num_parts` parts named <prefix>0.., each of 1-2 random value
/// columns over a few base rows, joined at random so base rows repeat.
/// `base` owns the base rows and `columns` collects the column names.
RowIdSet RandomParts(std::mt19937_64& rng, const std::string& prefix,
                     size_t num_parts, std::vector<std::vector<Row>>& base,
                     std::vector<std::string>& columns) {
  std::vector<Schema> schemas(num_parts);
  base.assign(num_parts, {});
  for (size_t p = 0; p < num_parts; ++p) {
    std::string part = prefix;  // Two-step concat (see RandomConfig).
    part += std::to_string(p);
    const size_t width = 1 + rng() % 2;
    for (size_t c = 0; c < width; ++c) {
      std::string column = "v";
      column += std::to_string(c);
      schemas[p].AddColumn(Column{part, column, ValueType::kString});
      columns.push_back(part + "." + column);
    }
    base[p].resize(1 + rng() % 5);
    for (Row& row : base[p]) {
      for (size_t c = 0; c < width; ++c) row.push_back(RandomValue(rng));
    }
  }
  RowIdSet tuples = RowIdSet::BorrowedAll(schemas[0], base[0]);
  for (size_t p = 1; p < num_parts; ++p) {
    const RowIdSet next = RowIdSet::BorrowedAll(schemas[p], base[p]);
    tuples = RandomPairs(rng, tuples, next, 12);
  }
  return tuples;
}

class InPlaceResidualPropertyTest
    : public ::testing::TestWithParam<uint64_t> {};

/// Joins `left` with `right` under an optional random key and a random
/// residual over their columns (literals drawn by `draw`), and expects the
/// tuples the per-row reference keeps on each candidate pair's
/// concatenated, gathered row, in the same order.
void ExpectJoinRowsMatchReference(std::mt19937_64& rng, const RowIdSet& left,
                                  const std::vector<std::string>& left_columns,
                                  const RowIdSet& right,
                                  const std::vector<std::string>& right_columns,
                                  ValueDraw draw) {
  std::vector<JoinKey> keys;
  if (rng() % 2 == 0) {
    keys.push_back({left_columns[rng() % left_columns.size()],
                    right_columns[rng() % right_columns.size()]});
  }
  std::vector<std::string> columns = left_columns;
  columns.insert(columns.end(), right_columns.begin(), right_columns.end());
  ExprPtr residual = RandomPredicate(rng, columns, 3, draw);
  const std::string text = residual->ToString();
  ExprPtr reference = residual->Clone();
  ASSERT_TRUE(reference->Bind(left.schema().Concat(right.schema())).ok());

  RowIdSet expected = RowIdSet::JoinOf(left, right);
  for (size_t l = 0; l < left.size(); ++l) {
    for (size_t r = 0; r < right.size(); ++r) {
      const Row row = ConcatRows(left.Gather(l), right.Gather(r));
      bool keys_equal = true;
      for (const JoinKey& key : keys) {
        const Value& a = row[*left.schema().Resolve(key.left_ref)];
        const Value& b = row[left.schema().num_columns() +
                             *right.schema().Resolve(key.right_ref)];
        keys_equal = keys_equal && !a.is_null() && !b.is_null() &&
                     ReferenceCompare(a, b) == 0;
      }
      if (keys_equal && ReferenceHolds(*reference, row)) {
        expected.AppendJoined(left, l, right, std::vector<size_t>{r});
      }
    }
  }
  auto joined = JoinRows(left, right, keys, std::move(residual));
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(joined->size(), expected.size());
  EXPECT_EQ(joined->ids(), expected.ids())
      << "residual " << text << " keys " << keys.size() << " parts "
      << left.num_parts() << "+" << right.num_parts();
}

/// JoinRows selects among each left tuple's candidates on the two inputs'
/// rows in place; the reference evaluates the same predicate per row on
/// each candidate pair's concatenated, gathered row.
TEST_P(InPlaceResidualPropertyTest, JoinRowsMatchesConcatenatedRows) {
  std::mt19937_64 rng(GetParam() * 7717u + 3);
  for (int round = 0; round < 60; ++round) {
    std::vector<std::vector<Row>> left_base;
    std::vector<std::vector<Row>> right_base;
    std::vector<std::string> left_columns;
    std::vector<std::string> right_columns;
    const RowIdSet left =
        RandomParts(rng, "l", 1 + rng() % 3, left_base, left_columns);
    const RowIdSet right =
        RandomParts(rng, "r", 1 + rng() % 2, right_base, right_columns);
    ExpectJoinRowsMatchReference(rng, left, left_columns, right,
                                 right_columns, RandomValue);
  }
}

/// The same over a right input that is one part of a Table's rows, every
/// row or an id list as a probe over a scan leaves, so `=` and `!=`
/// between a left column or a literal and a right column compare the
/// table's codes. The table grows by Insert and InsertUnchecked over the
/// rounds and is sometimes cleared and refilled.
TEST_P(InPlaceResidualPropertyTest, TableRightInputMatchesConcatenatedRows) {
  std::mt19937_64 rng(GetParam() * 3109u + 11);
  Table table("r0", Schema({Column{"r0", "v0", ValueType::kString},
                            Column{"r0", "v1", ValueType::kString}}));
  const std::vector<std::string> right_columns = {"r0.v0", "r0.v1"};
  for (int round = 0; round < 60; ++round) {
    if (rng() % 15 == 0) table.Clear();
    AppendRandomRows(rng, table, 1 + rng() % 4);
    std::vector<std::vector<Row>> left_base;
    std::vector<std::string> left_columns;
    const RowIdSet left =
        RandomParts(rng, "l", 1 + rng() % 3, left_base, left_columns);
    std::vector<size_t> ids;
    for (size_t r = 0; r < table.num_rows(); ++r) {
      if (rng() % 3 != 0) ids.push_back(r);
    }
    const RowIdSet right =
        rng() % 2 == 0 ? RowIdSet::BorrowedAll(table.schema(), table)
                       : RowIdSet::Borrowed(table.schema(), table, ids);
    ASSERT_EQ(right.table(0), &table);
    ExpectJoinRowsMatchReference(rng, left, left_columns, right,
                                 right_columns, RandomProbeValue);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, InPlaceResidualPropertyTest,
                         ::testing::Range<uint64_t>(1, 11));

class SelectPropertyTest : public ::testing::TestWithParam<uint64_t> {};

/// Expr::Select over random batches (a fixed piece of 0-3 columns, 0-50
/// candidates read directly or through ids with repeats, a random
/// ascending input selection) keeps, in order, exactly the candidates the
/// per-row reference holds for on the fixed piece ++ the candidate's row.
TEST_P(SelectPropertyTest, KeepsWhatThePerRowReferenceHolds) {
  std::mt19937_64 rng(GetParam() * 4391u + 17);
  for (int round = 0; round < 200; ++round) {
    const size_t fixed_width = rng() % 4;
    const size_t row_width = 1 + rng() % 3;
    Schema schema;
    std::vector<std::string> columns;
    for (size_t c = 0; c < fixed_width + row_width; ++c) {
      const std::string table = c < fixed_width ? "f" : "k";
      std::string name = "c";  // Two-step concat (see RandomConfig).
      name += std::to_string(c);
      schema.AddColumn(Column{table, name, ValueType::kString});
      columns.push_back(table + "." + name);
    }
    Row fixed(fixed_width);
    for (Value& v : fixed) v = RandomValue(rng);
    const size_t num_candidates = rng() % 51;
    const bool through_ids = rng() % 2 == 0;
    std::vector<Row> rows(through_ids ? 1 + rng() % 20 : num_candidates);
    for (Row& row : rows) {
      for (size_t c = 0; c < row_width; ++c) row.push_back(RandomValue(rng));
    }
    std::vector<size_t> ids(num_candidates);
    for (size_t& id : ids) id = rng() % rows.size();
    const uint64_t keep_one_in = 1 + rng() % 4;
    Selection selection;
    for (size_t c = 0; c < num_candidates; ++c) {
      if (rng() % keep_one_in == 0) selection.push_back(c);
    }
    ExprPtr predicate = RandomPredicate(rng, columns, 3);
    ASSERT_TRUE(predicate->Bind(schema).ok());

    RowBatch batch;
    batch.fixed = fixed;
    batch.rows = rows.data();
    batch.ids = through_ids ? ids.data() : nullptr;
    Selection expected;
    for (size_t c : selection) {
      if (ReferenceHolds(*predicate, ConcatRows(fixed, batch.candidate(c)))) {
        expected.push_back(c);
      }
    }
    predicate->Select(batch, selection);
    EXPECT_EQ(selection, expected)
        << predicate->ToString() << " fixed width " << fixed_width;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectPropertyTest,
                         ::testing::Range<uint64_t>(1, 11));

class CodedSelectPropertyTest : public ::testing::TestWithParam<uint64_t> {};

/// Expr::Select over batches whose candidates are a Table's rows, with the
/// batch lending the table so that `=` and `!=` against a string compare
/// its codes, keeps exactly the candidates the per-row reference holds for
/// on the values. The table grows over rounds of Insert and InsertUnchecked
/// (which may put a number in a string column and so stop it being coded)
/// and is sometimes cleared and refilled. Cells are NULL, the empty string
/// and strings that differ only in case; the fixed piece and the literals
/// add NULL, a string no cell holds, and numbers.
TEST_P(CodedSelectPropertyTest, KeepsWhatThePerRowReferenceHolds) {
  std::mt19937_64 rng(GetParam() * 2713u + 5);
  Table table("k", Schema({Column{"k", "c0", ValueType::kString},
                           Column{"k", "c1", ValueType::kString}}));
  size_t coded_comparisons = 0;
  for (int round = 0; round < 200; ++round) {
    if (rng() % 25 == 0) table.Clear();
    AppendRandomRows(rng, table, rng() % 6);
    if (table.num_rows() == 0) continue;
    const size_t fixed_width = rng() % 3;
    Schema schema;
    std::vector<std::string> fixed_columns;
    for (size_t c = 0; c < fixed_width; ++c) {
      std::string name = "c";  // Two-step concat (see RandomConfig).
      name += std::to_string(c);
      schema.AddColumn(Column{"f", name, ValueType::kString});
      fixed_columns.push_back("f." + name);
    }
    const std::vector<std::string> table_columns = {"k.c0", "k.c1"};
    for (const Column& column : table.schema().columns()) {
      schema.AddColumn(column);
    }
    std::vector<std::string> columns = fixed_columns;
    columns.insert(columns.end(), table_columns.begin(), table_columns.end());
    Row fixed(fixed_width);
    for (Value& v : fixed) v = RandomProbeValue(rng);

    const bool through_ids = rng() % 2 == 0;
    const size_t num_candidates =
        through_ids ? rng() % 40 : 1 + rng() % table.num_rows();
    std::vector<size_t> ids(num_candidates);
    for (size_t& id : ids) id = rng() % table.num_rows();
    Selection selection;
    for (size_t c = 0; c < num_candidates; ++c) {
      if (rng() % 4 != 0) selection.push_back(c);
    }
    // Half the rounds compare one candidate column with a fixed column or
    // a literal by `=` or `!=`, the coded form; the rest draw a tree.
    ExprPtr predicate;
    if (rng() % 2 == 0) {
      const std::string& column = table_columns[rng() % 2];
      ExprPtr other = !fixed_columns.empty() && rng() % 2 == 0
                          ? Col(fixed_columns[rng() % fixed_width])
                          : Lit(RandomProbeValue(rng));
      const CompareOp op = rng() % 2 == 0 ? CompareOp::kEq : CompareOp::kNe;
      predicate = rng() % 2 == 0 ? Cmp(op, Col(column), std::move(other))
                                 : Cmp(op, std::move(other), Col(column));
      if (table.codes(column == "k.c0" ? 0 : 1) != nullptr) {
        ++coded_comparisons;
      }
    } else {
      predicate = RandomPredicate(rng, columns, 3, RandomProbeValue);
    }
    ASSERT_TRUE(predicate->Bind(schema).ok());

    RowBatch batch;
    batch.fixed = fixed;
    batch.rows = table.rows().data();
    batch.ids = through_ids ? ids.data() : nullptr;
    batch.table = &table;
    Selection expected;
    for (size_t c : selection) {
      if (ReferenceHolds(*predicate, ConcatRows(fixed, batch.candidate(c)))) {
        expected.push_back(c);
      }
    }
    predicate->Select(batch, selection);
    EXPECT_EQ(selection, expected)
        << predicate->ToString() << " fixed " << RowToString(fixed)
        << " rows " << table.num_rows();
  }
  EXPECT_GT(coded_comparisons, 20u) << "the coded form was rarely drawn";
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodedSelectPropertyTest,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace textjoin
