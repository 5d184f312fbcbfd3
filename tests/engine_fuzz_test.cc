#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "common/text_match.h"
#include "text/analyzer.h"
#include "text/engine.h"
#include "text/query.h"

/// \file
/// Differential fuzzing of the Boolean text engine: random corpora and
/// random Boolean query trees, evaluated both by the inverted-index engine
/// and by a brute-force per-document reference built on the shared
/// relational-side matcher. Any divergence is a bug in the index, the
/// merges, or the analyzer.

namespace textjoin {
namespace {

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

/// Random corpus: small vocabulary so conjunctions and phrases hit often.
std::unique_ptr<TextEngine> RandomCorpus(Rng& rng, size_t docs) {
  auto engine = std::make_unique<TextEngine>();
  const char* vocab[] = {"alpha", "beta", "gamma", "delta", "epsilon",
                         "zeta",  "eta",  "theta", "iota",  "kappa"};
  for (size_t d = 0; d < docs; ++d) {
    Document doc;
    doc.docid = "d" + std::to_string(d);
    for (const char* field : {"title", "author"}) {
      const int64_t values = rng.Uniform(0, 2);
      std::vector<std::string> list;
      for (int64_t v = 0; v < values; ++v) {
        std::string value;
        const int64_t words = rng.Uniform(1, 4);
        for (int64_t w = 0; w < words; ++w) {
          if (w != 0) value += " ";
          value += vocab[rng.Uniform(0, 9)];
        }
        list.push_back(std::move(value));
      }
      if (!list.empty()) doc.fields[field] = std::move(list);
    }
    TEXTJOIN_CHECK(engine->AddDocument(std::move(doc)).ok(), "add");
  }
  return engine;
}

/// Random Boolean query tree of bounded depth.
TextQueryPtr RandomQuery(Rng& rng, int depth) {
  const char* vocab[] = {"alpha", "beta", "gamma", "delta", "epsilon",
                         "zeta",  "eta",  "theta", "iota",  "kappa"};
  const char* fields[] = {"title", "author"};
  if (depth == 0 || rng.Bernoulli(0.4)) {
    const int64_t kind = rng.Uniform(0, 9);
    std::string term = vocab[rng.Uniform(0, 9)];
    TermKind term_kind = TermKind::kWordOrPhrase;
    if (kind < 3) {
      // Phrase of two words.
      term += " ";
      term += vocab[rng.Uniform(0, 9)];
    } else if (kind == 3) {
      // Prefix of a vocabulary word.
      term = term.substr(0, static_cast<size_t>(rng.Uniform(1, 3)));
      term_kind = TermKind::kPrefix;
    }
    return TextQuery::Term(fields[rng.Uniform(0, 1)], std::move(term),
                           term_kind);
  }
  const int64_t connector = rng.Uniform(0, 3);
  if (connector == 2) {
    return TextQuery::Not(RandomQuery(rng, depth - 1));
  }
  if (connector == 3) {
    // Proximity between two random terms (possibly different fields).
    TextQueryPtr l = RandomQuery(rng, 0);
    TextQueryPtr r = RandomQuery(rng, 0);
    return TextQuery::Near(std::move(l), std::move(r),
                           static_cast<uint32_t>(rng.Uniform(0, 6)));
  }
  std::vector<TextQueryPtr> children;
  const int64_t arity = rng.Uniform(2, 3);
  for (int64_t i = 0; i < arity; ++i) {
    children.push_back(RandomQuery(rng, depth - 1));
  }
  return connector == 0 ? TextQuery::And(std::move(children))
                        : TextQuery::Or(std::move(children));
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
// and the legacy posting-list evaluator must agree EXACTLY — same docs in
// the same order AND the same postings_processed meter, since the meter is
// the paper's cost-model artifact and must not shift with the decoder.
TEST_P(EngineFuzzTest, BlockEvaluatorMatchesLegacy) {
  Rng rng(GetParam() * 17 + 11);
  auto engine = RandomCorpus(rng, static_cast<size_t>(rng.Uniform(10, 150)));
  for (int q = 0; q < 80; ++q) {
    TextQueryPtr query = RandomQuery(rng, 3);
    auto block = engine->SearchWithMode(*query, EvalMode::kBlock);
    auto legacy = engine->SearchWithMode(*query, EvalMode::kLegacy);
    ASSERT_TRUE(block.ok()) << query->ToString();
    ASSERT_TRUE(legacy.ok()) << query->ToString();
    EXPECT_EQ(block->docs, legacy->docs)
        << "query: " << query->ToString() << " seed " << GetParam();
    EXPECT_EQ(block->postings_processed, legacy->postings_processed)
        << "meter drift, query: " << query->ToString() << " seed "
        << GetParam();
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
