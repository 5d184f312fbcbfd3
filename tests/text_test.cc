#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>

#include "common/text_match.h"
#include "tests/support/reference_postings.h"
#include "tests/test_util.h"
#include "text/analyzer.h"
#include "text/engine.h"
#include "text/inverted_index.h"
#include "text/postings.h"
#include "text/query.h"
#include "text/signature_index.h"

namespace textjoin {
namespace {

using textjoin::testing::MakeDoc;
using textjoin::testing::MakeSmallEngine;

// -------------------------------------------------------------- Analyzer

TEST(AnalyzerTest, PositionsAcrossValuesAreGapped) {
  const std::vector<TokenOccurrence> occs =
      AnalyzeFieldValues({"john smith", "mary"});
  ASSERT_EQ(occs.size(), 3u);
  EXPECT_EQ(occs[0].token, "john");
  EXPECT_EQ(occs[0].position, 0u);
  EXPECT_EQ(occs[1].token, "smith");
  EXPECT_EQ(occs[1].position, 1u);
  EXPECT_EQ(occs[2].token, "mary");
  EXPECT_EQ(occs[2].position, kFieldValuePositionGap);
}

TEST(AnalyzerTest, AnalyzeTermLowercases) {
  EXPECT_EQ(AnalyzeTerm("Belief UPDATE"),
            (std::vector<std::string>{"belief", "update"}));
}

// -------------------------------------------------------------- Postings

PostingList MakeList(std::vector<std::pair<DocNum, std::vector<TokenPos>>>
                         entries) {
  PostingList list;
  for (auto& [doc, positions] : entries) {
    list.push_back(Posting{doc, positions});
  }
  return list;
}

TEST(PostingsTest, Intersect) {
  MergeCounter counter;
  PostingList a = MakeList({{1, {0}}, {3, {0}}, {5, {0}}});
  PostingList b = MakeList({{3, {1}}, {4, {1}}, {5, {1}}});
  PostingList out = IntersectLists(a, b, &counter);
  EXPECT_EQ(DocsOf(out), (std::vector<DocNum>{3, 5}));
  EXPECT_EQ(counter.postings_processed, 6u);
}

TEST(PostingsTest, UnionMergesPositions) {
  PostingList a = MakeList({{1, {0, 2}}, {2, {0}}});
  PostingList b = MakeList({{1, {1, 2}}, {3, {0}}});
  PostingList out = UnionLists(a, b, nullptr);
  EXPECT_EQ(DocsOf(out), (std::vector<DocNum>{1, 2, 3}));
  EXPECT_EQ(out[0].positions, (std::vector<TokenPos>{0, 1, 2}));
}

TEST(PostingsTest, Difference) {
  PostingList a = MakeList({{1, {0}}, {2, {0}}, {3, {0}}});
  PostingList b = MakeList({{2, {0}}});
  EXPECT_EQ(DocsOf(DifferenceLists(a, b, nullptr)),
            (std::vector<DocNum>{1, 3}));
}

TEST(PostingsTest, PhraseAdjacent) {
  // "belief"(pos 3) followed by "update"(pos 4) in doc 7 only.
  PostingList belief = MakeList({{7, {3}}, {9, {0}}});
  PostingList update = MakeList({{7, {4}}, {9, {5}}});
  PostingList out = PhraseAdjacent(belief, update, nullptr);
  EXPECT_EQ(DocsOf(out), (std::vector<DocNum>{7}));
  EXPECT_EQ(out[0].positions, (std::vector<TokenPos>{4}));
}

TEST(PostingsTest, EmptyInputs) {
  PostingList a = MakeList({{1, {0}}});
  EXPECT_TRUE(IntersectLists(a, {}, nullptr).empty());
  EXPECT_EQ(DocsOf(UnionLists(a, {}, nullptr)), (std::vector<DocNum>{1}));
  EXPECT_EQ(DocsOf(DifferenceLists(a, {}, nullptr)),
            (std::vector<DocNum>{1}));
  EXPECT_TRUE(PhraseAdjacent({}, a, nullptr).empty());
}

// --------------------------------------------------------- InvertedIndex

TEST(InvertedIndexTest, LookupAndFrequency) {
  InvertedIndex index;
  Document d1 = MakeDoc("a", "belief update", {"Smith"});
  Document d2 = MakeDoc("b", "belief revision", {"Kao"});
  index.AddDocument(0, d1);
  index.AddDocument(1, d2);
  EXPECT_EQ(index.DocFrequency("title", "belief"), 2u);
  EXPECT_EQ(index.DocFrequency("title", "update"), 1u);
  EXPECT_EQ(index.DocFrequency("title", "BELIEF"), 2u);  // case-insensitive
  EXPECT_EQ(index.ListLength("title", "Belief"), 2u);
  EXPECT_EQ(index.DocFrequency("author", "smith"), 1u);
  EXPECT_EQ(index.DocFrequency("title", "nothere"), 0u);
  EXPECT_EQ(index.DocFrequency("nofield", "belief"), 0u);
  // Lookup takes analyzer output as given: no case folding.
  EXPECT_EQ(index.Lookup("title", "belief").size(), 2u);
  EXPECT_TRUE(index.Lookup("title", "BELIEF").empty());
}

TEST(InvertedIndexTest, PrefixLookup) {
  InvertedIndex index;
  index.AddDocument(0, MakeDoc("a", "filter filtering filters", {}));
  index.AddDocument(1, MakeDoc("b", "filtration", {}));
  EXPECT_EQ(index.LookupPrefix("title", "filter").size(), 3u);
  EXPECT_EQ(index.LookupPrefix("title", "filt").size(), 4u);
  EXPECT_TRUE(index.LookupPrefix("title", "zzz").empty());
}

TEST(InvertedIndexTest, VocabularyAndTotals) {
  InvertedIndex index;
  index.AddDocument(0, MakeDoc("a", "x y", {"Z"}));
  EXPECT_EQ(index.VocabularySize("title"), 2u);
  EXPECT_EQ(index.VocabularySize("author"), 1u);
  // x, y in title; z in author; "1994" in year = 4 postings.
  EXPECT_EQ(index.TotalPostings(), 4u);
}

// ------------------------------------------------------------ Query AST

TEST(TextQueryTest, CountTerms) {
  auto q = TextQuery::And([] {
    std::vector<TextQueryPtr> kids;
    kids.push_back(TextQuery::Term("title", "text"));
    std::vector<TextQueryPtr> ors;
    ors.push_back(TextQuery::Term("author", "a"));
    ors.push_back(TextQuery::Term("author", "b"));
    kids.push_back(TextQuery::Or(std::move(ors)));
    return kids;
  }());
  EXPECT_EQ(q->CountTerms(), 3u);
}

TEST(TextQueryTest, CloneIsDeep) {
  auto q = TextQuery::Not(TextQuery::Term("title", "x"));
  auto copy = q->Clone();
  EXPECT_EQ(q->ToString(), copy->ToString());
}

TEST(TextQueryParserTest, ParsesConjunction) {
  auto q = ParseTextQuery("title='belief update' and author='smith'");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->kind(), TextQuery::Kind::kAnd);
  EXPECT_EQ((*q)->CountTerms(), 2u);
}

TEST(TextQueryParserTest, ParsesNestedOrAndNot) {
  auto q = ParseTextQuery(
      "title='text' and (author='gravano' or author='kao') and not "
      "year='1993'");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->CountTerms(), 4u);
}

TEST(TextQueryParserTest, PrefixTerm) {
  auto q = ParseTextQuery("title='filter?'");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->term_kind(), TermKind::kPrefix);
  EXPECT_EQ((*q)->term(), "filter");
}

TEST(TextQueryParserTest, Errors) {
  EXPECT_FALSE(ParseTextQuery("").ok());
  EXPECT_FALSE(ParseTextQuery("title=").ok());
  EXPECT_FALSE(ParseTextQuery("title='x").ok());
  EXPECT_FALSE(ParseTextQuery("(title='x'").ok());
  EXPECT_FALSE(ParseTextQuery("title='x' garbage").ok());
}

TEST(TextQueryParserTest, RoundtripThroughToString) {
  auto q = ParseTextQuery("(title='a' or title='b') and author='c'");
  ASSERT_TRUE(q.ok());
  auto q2 = ParseTextQuery((*q)->ToString());
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ((*q)->ToString(), (*q2)->ToString());
}

// ---------------------------------------------------------------- Engine

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : engine_(MakeSmallEngine()) {}

  std::vector<DocNum> Run(const std::string& query) {
    auto parsed = ParseTextQuery(query);
    TEXTJOIN_CHECK(parsed.ok(), "%s", parsed.status().ToString().c_str());
    auto result = engine_->Search(**parsed);
    TEXTJOIN_CHECK(result.ok(), "%s", result.status().ToString().c_str());
    return result->docs;
  }

  std::unique_ptr<TextEngine> engine_;
};

TEST_F(EngineTest, SingleWordSearch) {
  EXPECT_EQ(Run("title='belief'"), (std::vector<DocNum>{0, 3}));
  EXPECT_EQ(Run("author='gravano'"), (std::vector<DocNum>{1, 2}));
}

TEST_F(EngineTest, PhraseSearch) {
  EXPECT_EQ(Run("title='belief update'"), (std::vector<DocNum>{0}));
  EXPECT_TRUE(Run("title='update belief'").empty());
}

TEST_F(EngineTest, FieldRestriction) {
  EXPECT_TRUE(Run("author='belief'").empty());
}

TEST_F(EngineTest, BooleanConnectors) {
  EXPECT_EQ(Run("title='belief' and author='smith'"),
            (std::vector<DocNum>{0}));
  EXPECT_EQ(Run("author='gravano' or author='yan'"),
            (std::vector<DocNum>{1, 2, 5}));
  EXPECT_EQ(Run("author='gravano' and not title='text'"),
            (std::vector<DocNum>{2}));
}

TEST_F(EngineTest, PrefixSearch) {
  // "belief" docs 0,3; no other title token starts with "belie".
  EXPECT_EQ(Run("title='belie?'"), (std::vector<DocNum>{0, 3}));
}

TEST_F(EngineTest, PhraseCannotCrossAuthorValues) {
  // d1 has authors {Radhika, Smith} as separate values.
  EXPECT_TRUE(Run("author='radhika smith'").empty());
}

TEST_F(EngineTest, TermLimitEnforced) {
  engine_->set_max_search_terms(2);
  auto q = ParseTextQuery("title='a' and title='b' and title='c'");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(engine_->Search(**q).status().code(),
            StatusCode::kResourceExhausted);
}

TEST_F(EngineTest, PostingsProcessedAccounting) {
  auto q = ParseTextQuery("title='belief'");
  auto result = engine_->Search(**q);
  ASSERT_TRUE(result.ok());
  // "belief" appears in docs 0 and 3 => inverted list length 2.
  EXPECT_EQ(result->postings_processed, 2u);

  auto q2 = ParseTextQuery("title='belief' and title='update'");
  auto result2 = engine_->Search(**q2);
  ASSERT_TRUE(result2.ok());
  // belief: 2 postings, update: 2 postings.
  EXPECT_EQ(result2->postings_processed, 4u);
}

TEST_F(EngineTest, DuplicateDocidRejected) {
  EXPECT_EQ(engine_->AddDocument(MakeDoc("d1", "x", {})).status().code(),
            StatusCode::kAlreadyExists);
}

TEST_F(EngineTest, FindDocid) {
  auto num = engine_->FindDocid("d3");
  ASSERT_TRUE(num.ok());
  EXPECT_EQ(engine_->GetDocument(*num).docid, "d3");
  EXPECT_EQ(engine_->FindDocid("zzz").status().code(), StatusCode::kNotFound);
}

TEST_F(EngineTest, EmptyTermMatchesNothing) {
  EXPECT_TRUE(Run("title=''").empty());
  EXPECT_TRUE(Run("title='...'").empty());
}



TEST_F(EngineTest, ProximitySearch) {
  // d1 title: "Belief update in knowledge bases" — belief@0, knowledge@3.
  EXPECT_EQ(Run("title='belief' near3 title='knowledge'"),
            (std::vector<DocNum>{0}));
  EXPECT_TRUE(Run("title='belief' near2 title='knowledge'").empty());
  // Symmetric: order of operands must not matter.
  EXPECT_EQ(Run("title='knowledge' near3 title='belief'"),
            (std::vector<DocNum>{0}));
  // near0 means same position: never true for distinct tokens.
  EXPECT_TRUE(Run("title='belief' near0 title='update'").empty());
  // Within-value restriction: author values are gap-separated, so two
  // different authors are never "near" each other.
  EXPECT_TRUE(Run("author='radhika' near50 author='smith'").empty());
}

TEST_F(EngineTest, ProximityParserRendering) {
  auto q = ParseTextQuery("title='belief' near7 title='bases'");
  ASSERT_TRUE(q.ok());
  EXPECT_EQ((*q)->kind(), TextQuery::Kind::kNear);
  EXPECT_EQ((*q)->near_distance(), 7u);
  EXPECT_EQ((*q)->CountTerms(), 2u);
  auto q2 = ParseTextQuery((*q)->ToString());
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ((*q)->ToString(), (*q2)->ToString());
  // "near" without digits is just a (bad) term, not a proximity operator.
  EXPECT_FALSE(ParseTextQuery("title='a' near title='b'").ok());
}


// ------------------------------------------------------- SignatureIndex

TEST(SignatureIndexTest, NoFalseNegatives) {
  auto engine = MakeSmallEngine();
  SignatureIndex signatures(256, 3);
  for (DocNum n = 0; n < engine->num_documents(); ++n) {
    signatures.AddDocument(n, engine->GetDocument(n));
  }
  // Every true match must be among the candidates, for every token of
  // every field.
  engine->index().ForEachList([&](const std::string& field,
                                  const std::string& token,
                                  const BlockPostings& list) {
    const std::vector<DocNum> candidates =
        signatures.Candidates(field, token);
    std::set<DocNum> candidate_set(candidates.begin(), candidates.end());
    for (const Posting& p : Materialize(list)) {
      EXPECT_TRUE(candidate_set.count(p.doc))
          << field << "/" << token << " doc " << p.doc;
    }
  });
}

TEST(SignatureIndexTest, CandidatesVerifyToExactMatches) {
  auto engine = MakeSmallEngine();
  SignatureIndex signatures(512, 4);
  for (DocNum n = 0; n < engine->num_documents(); ++n) {
    signatures.AddDocument(n, engine->GetDocument(n));
  }
  for (const char* token : {"belief", "gravano", "text", "smith"}) {
    // Verify candidates against the text (the mandatory second phase of a
    // signature-file search) and compare with the inverted index.
    std::set<DocNum> verified;
    for (DocNum d : signatures.Candidates("author", token)) {
      if (TermMatchesFieldText(
              token,
              JoinFieldValues(engine->GetDocument(d).FieldValues("author")))) {
        verified.insert(d);
      }
    }
    const PostingList truth =
        Materialize(engine->index().Lookup("author", token));
    std::set<DocNum> expected;
    for (const Posting& p : truth) expected.insert(p.doc);
    EXPECT_EQ(verified, expected) << token;
  }
}

TEST(SignatureIndexTest, FalsePositiveRateShrinksWithWiderSignatures) {
  // Index many multi-token titles; measure candidates for an absent token.
  auto build = [](size_t bits) {
    SignatureIndex index(bits, 3);
    for (DocNum d = 0; d < 300; ++d) {
      Document doc;
      doc.docid = "d" + std::to_string(d);
      std::string title;
      for (int w = 0; w < 25; ++w) {
        title += "tok" + std::to_string((d * 31 + w * 7) % 900) + " ";
      }
      doc.fields["title"] = {title};
      index.AddDocument(d, doc);
    }
    return index;
  };
  SignatureIndex narrow = build(64);
  SignatureIndex wide = build(1024);
  // 'zzzabsent' is in no document: every candidate is a false positive.
  const size_t fp_narrow = narrow.Candidates("title", "zzzabsent").size();
  const size_t fp_wide = wide.Candidates("title", "zzzabsent").size();
  EXPECT_GT(fp_narrow, fp_wide);
  EXPECT_LT(fp_wide, 20u);
  EXPECT_GT(wide.StorageBytes(), narrow.StorageBytes());
}

// Const engine methods must be safe to call from many threads at once (a
// real text server handles concurrent searches); TSAN-friendly smoke test.
TEST_F(EngineTest, ConcurrentSearchesAreSafe) {
  auto q1 = ParseTextQuery("title='belief' and author='smith'");
  auto q2 = ParseTextQuery("author='gravano' or author='kao'");
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 200; ++i) {
        const TextQuery& q = (t + i) % 2 == 0 ? **q1 : **q2;
        auto result = engine_->Search(q);
        if (!result.ok() || result->docs.empty()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
}

// The text engine and the relational-side string matcher must agree: for
// every document and every term, search results equal TermMatchesFieldText
// on the flattened field. This is the consistency requirement RTP relies
// on (paper Section 3.2), tested on the fixed corpus here and fuzzed in
// property_test.cc.
TEST_F(EngineTest, AgreesWithRelationalMatcher) {
  const std::vector<std::string> terms = {
      "belief",        "belief update", "text",  "smith",  "gravano",
      "update belief", "kao",           "garcia", "survey", "1993"};
  const std::vector<std::string> fields = {"title", "author", "year"};
  for (const std::string& field : fields) {
    for (const std::string& term : terms) {
      auto q = TextQuery::Term(field, term);
      auto result = engine_->Search(*q);
      ASSERT_TRUE(result.ok());
      std::set<DocNum> matched(result->docs.begin(), result->docs.end());
      for (DocNum n = 0; n < engine_->num_documents(); ++n) {
        const Document& doc = engine_->GetDocument(n);
        const bool relational = TermMatchesFieldText(
            term, JoinFieldValues(doc.FieldValues(field)));
        EXPECT_EQ(matched.count(n) == 1, relational)
            << "term '" << term << "' field '" << field << "' doc "
            << doc.docid;
      }
    }
  }
}

}  // namespace
}  // namespace textjoin
