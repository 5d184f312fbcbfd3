#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "common/text_match.h"
#include "tests/support/random_text.h"
#include "tests/support/reference_postings.h"
#include "text/analyzer.h"
#include "text/engine.h"
#include "text/query.h"

/// \file
/// Differential fuzzing of the Boolean text engine: random corpora and
/// random Boolean query trees, evaluated by the inverted-index engine, by
/// a brute-force per-document reference built on the shared
/// relational-side matcher, and by the flat reference evaluator of
/// tests/support. Any divergence is a bug in the index, the merges, or the
/// analyzer.

namespace textjoin {
namespace {

using textjoin::testing::RandomDocument;
using textjoin::testing::RandomQuery;

/// Global (analyzer-scheme) positions at which `term` matches within
/// `values` — last-token positions for phrases, all matching-token
/// positions for prefixes.
std::vector<TokenPos> TermPositions(const TextQuery& term,
                                    const std::vector<std::string>& values) {
  std::vector<TokenPos> out;
  const std::vector<TokenOccurrence> occs = AnalyzeFieldValues(values);
  if (term.term_kind() == TermKind::kPrefix) {
    const std::vector<std::string> prefix_tokens =
        TokenizeText(term.term());
    if (prefix_tokens.size() != 1) return out;
    for (const TokenOccurrence& occ : occs) {
      if (StartsWith(occ.token, prefix_tokens[0])) out.push_back(occ.position);
    }
    return out;
  }
  const std::vector<std::string> tokens = TokenizeText(term.term());
  if (tokens.empty()) return out;
  for (size_t i = 0; i + tokens.size() <= occs.size(); ++i) {
    bool match = true;
    for (size_t t = 0; t < tokens.size(); ++t) {
      if (occs[i + t].token != tokens[t] ||
          occs[i + t].position != occs[i].position + t) {
        match = false;
        break;
      }
    }
    if (match) out.push_back(occs[i + tokens.size() - 1].position);
  }
  return out;
}

/// Brute-force evaluation of `query` against one document.
bool DocMatches(const TextQuery& query, const Document& doc) {
  switch (query.kind()) {
    case TextQuery::Kind::kTerm: {
      const std::string flattened =
          JoinFieldValues(doc.FieldValues(query.field()));
      if (query.term_kind() == TermKind::kPrefix) {
        // Prefix: any token of the field starts with the (analyzed) prefix.
        const std::vector<std::string> prefix_tokens =
            TokenizeText(query.term());
        if (prefix_tokens.size() != 1) return false;
        for (const std::string& value : SplitFieldValues(flattened)) {
          for (const std::string& token : TokenizeText(value)) {
            if (StartsWith(token, prefix_tokens[0])) return true;
          }
        }
        return false;
      }
      return TermMatchesFieldText(query.term(), flattened);
    }
    case TextQuery::Kind::kAnd:
      for (const TextQueryPtr& child : query.children()) {
        if (!DocMatches(*child, doc)) return false;
      }
      return true;
    case TextQuery::Kind::kOr:
      for (const TextQueryPtr& child : query.children()) {
        if (DocMatches(*child, doc)) return true;
      }
      return false;
    case TextQuery::Kind::kNot:
      return !DocMatches(*query.children()[0], doc);
    case TextQuery::Kind::kNear: {
      const TextQuery& l = *query.children()[0];
      const TextQuery& r = *query.children()[1];
      const std::vector<TokenPos> pl =
          TermPositions(l, doc.FieldValues(l.field()));
      const std::vector<TokenPos> pr =
          TermPositions(r, doc.FieldValues(r.field()));
      for (TokenPos a : pl) {
        for (TokenPos b : pr) {
          const TokenPos d = a <= b ? b - a : a - b;
          if (d <= query.near_distance()) return true;
        }
      }
      return false;
    }
  }
  return false;
}

/// Random corpus over the shared test vocabulary.
std::unique_ptr<TextEngine> RandomCorpus(Rng& rng, size_t docs) {
  auto engine = std::make_unique<TextEngine>();
  for (size_t d = 0; d < docs; ++d) {
    TEXTJOIN_CHECK(
        engine->AddDocument(RandomDocument(rng, "d" + std::to_string(d)))
            .ok(),
        "add");
  }
  return engine;
}

class EngineFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EngineFuzzTest, EngineMatchesBruteForce) {
  Rng rng(GetParam() * 31 + 5);
  auto engine = RandomCorpus(rng, static_cast<size_t>(rng.Uniform(10, 120)));
  for (int q = 0; q < 60; ++q) {
    TextQueryPtr query = RandomQuery(rng, 3);
    auto result = engine->Search(*query);
    ASSERT_TRUE(result.ok()) << query->ToString();
    std::set<DocNum> got(result->docs.begin(), result->docs.end());
    std::set<DocNum> want;
    for (DocNum n = 0; n < engine->num_documents(); ++n) {
      if (DocMatches(*query, engine->GetDocument(n))) want.insert(n);
    }
    EXPECT_EQ(got, want) << "query: " << query->ToString() << " seed "
                         << GetParam();
    // Result docs must be sorted and unique (the engine's contract).
    for (size_t i = 1; i < result->docs.size(); ++i) {
      EXPECT_LT(result->docs[i - 1], result->docs[i]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineFuzzTest,
                         ::testing::Range<uint64_t>(1, 13));

// Differential property (DESIGN.md §14): the block-compressed evaluator
// and the flat reference evaluator (tests/support) must agree EXACTLY —
// same docs in the same order AND the same postings_processed meter, since
// the meter is the paper's cost-model artifact and must not shift with the
// decoder. Both evaluation modes run: exhaustive changes only the charge.
TEST_P(EngineFuzzTest, BlockEvaluatorMatchesReference) {
  Rng rng(GetParam() * 17 + 11);
  auto engine = RandomCorpus(rng, static_cast<size_t>(rng.Uniform(10, 150)));
  for (int q = 0; q < 80; ++q) {
    TextQueryPtr query = RandomQuery(rng, 3);
    for (bool exhaustive : {false, true}) {
      engine->set_exhaustive_eval(exhaustive);
      auto block = engine->Search(*query);
      auto reference =
          ReferenceSearch(*query, engine->index(), engine->num_documents(),
                          engine->max_search_terms(), exhaustive);
      ASSERT_TRUE(block.ok()) << query->ToString();
      ASSERT_TRUE(reference.ok()) << query->ToString();
      EXPECT_EQ(block->docs, reference->docs)
          << "query: " << query->ToString() << " seed " << GetParam()
          << " exhaustive " << exhaustive;
      EXPECT_EQ(block->postings_processed, reference->postings_processed)
          << "meter drift, query: " << query->ToString() << " seed "
          << GetParam() << " exhaustive " << exhaustive;
    }
  }
}

// Round-trip property: every engine query must parse back from its own
// ToString and produce the same result set.
TEST(EngineFuzzRoundtrip, ToStringParseRoundtrip) {
  Rng rng(99);
  auto engine = RandomCorpus(rng, 60);
  for (int q = 0; q < 100; ++q) {
    TextQueryPtr query = RandomQuery(rng, 3);
    auto reparsed = ParseTextQuery(query->ToString());
    ASSERT_TRUE(reparsed.ok()) << query->ToString();
    auto a = engine->Search(*query);
    auto b = engine->Search(**reparsed);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->docs, b->docs) << query->ToString();
  }
}

}  // namespace
}  // namespace textjoin
