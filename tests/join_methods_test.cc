#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "connector/remote_text_source.h"
#include "core/join_methods.h"
#include "core/pipeline.h"
#include "tests/test_util.h"

namespace textjoin {
namespace {

using textjoin::testing::DocidSet;
using textjoin::testing::MakeSmallEngine;
using textjoin::testing::MakeStudentTable;
using textjoin::testing::MercuryDecl;
using textjoin::testing::PairSet;

/// Expected pairs rendered as (student name, docid) for readability.
std::set<std::pair<std::string, std::string>> NamePairs(
    const ForeignJoinResult& result, size_t left_width) {
  std::set<std::pair<std::string, std::string>> out;
  for (const Row& row : result.rows) {
    out.emplace(row.at(0).AsString(), row.at(left_width).AsString());
  }
  return out;
}

/// The rendering of the conjunctive author search over `authors`, as the
/// join methods build it.
std::string AuthorsQuery(const std::vector<std::string>& authors) {
  std::vector<TextQueryPtr> terms;
  for (const std::string& author : authors) {
    terms.push_back(TextQuery::Term("author", author));
  }
  return TextQuery::And(std::move(terms))->ToString();
}

/// Forwards to `inner` and records every search, in the order issued.
class RecordingSource final : public TextSourceDecorator {
 public:
  explicit RecordingSource(TextSource* inner) : TextSourceDecorator(inner) {}

  Result<std::vector<std::string>> Search(
      const TextQuery& query) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      searches_.push_back(query.ToString());
    }
    return inner_->Search(query);
  }
  Result<Document> Fetch(const std::string& docid) const override {
    return inner_->Fetch(docid);
  }

  std::vector<std::string> searches() const {
    std::lock_guard<std::mutex> lock(mu_);
    return searches_;
  }

 private:
  mutable std::mutex mu_;
  mutable std::vector<std::string> searches_;
};

class JoinMethodsTest : public ::testing::Test {
 protected:
  JoinMethodsTest()
      : engine_(MakeSmallEngine()),
        source_(engine_.get()),
        table_(MakeStudentTable()) {}

  ForeignJoinSpec BaseSpec() const {
    ForeignJoinSpec spec;
    spec.left_schema = table_->schema();
    spec.text = MercuryDecl();
    return spec;
  }

  /// Spec for: 'belief' in title AND student.name in author.
  ForeignJoinSpec BeliefSpec() const {
    ForeignJoinSpec spec = BaseSpec();
    spec.selections = {{"belief", "title"}};
    spec.joins = {{"student.name", "author"}};
    return spec;
  }

  /// Spec for the two-predicate join: name in author AND advisor in author.
  ForeignJoinSpec CoauthorSpec() const {
    ForeignJoinSpec spec = BaseSpec();
    spec.joins = {{"student.name", "author"},
                  {"student.advisor", "author"}};
    return spec;
  }

  size_t left_width() const { return table_->schema().num_columns(); }

  std::unique_ptr<TextEngine> engine_;
  RemoteTextSource source_;
  std::unique_ptr<Table> table_;
};

// Ground truth for BeliefSpec (see MakeSmallEngine corpus):
// d1 {Radhika, Smith} and d4 {Kao} have 'belief' in the title.
const std::set<std::pair<std::string, std::string>> kBeliefPairs = {
    {"Radhika", "d1"}, {"Smith", "d1"}, {"Kao", "d4"}};

// Ground truth for CoauthorSpec: only Gravano co-authored with Garcia (d3).
const std::set<std::pair<std::string, std::string>> kCoauthorPairs = {
    {"Gravano", "d3"}};

TEST_F(JoinMethodsTest, TupleSubstitutionCorrectness) {
  auto result = ExecuteForeignJoin(JoinMethodKind::kTS, BeliefSpec(),
                                   table_->rows(), source_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(NamePairs(*result, left_width()), kBeliefPairs);
  // Distinct-tuple variant: one search per distinct name.
  EXPECT_EQ(source_.meter().invocations, 5u);
  // V = total matched docs across searches = 3 long forms.
  EXPECT_EQ(source_.meter().long_docs, 3u);
}

TEST_F(JoinMethodsTest, TupleSubstitutionDedupsJoinValues) {
  // Duplicate every student row: invocations must not grow.
  std::vector<Row> doubled = table_->rows();
  doubled.insert(doubled.end(), table_->rows().begin(), table_->rows().end());
  auto result = ExecuteForeignJoin(JoinMethodKind::kTS, BeliefSpec(), doubled,
                                   source_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(source_.meter().invocations, 5u);
  // Pairs are emitted per tuple, so each pair appears twice in the rows.
  EXPECT_EQ(result->rows.size(), 6u);
  EXPECT_EQ(NamePairs(*result, left_width()), kBeliefPairs);
}

TEST_F(JoinMethodsTest, TupleSubstitutionSkipsNullJoinValues) {
  std::vector<Row> rows = table_->rows();
  rows.push_back({Value::Null(), Value::Str("AI"), Value::Str("Garcia"),
                  Value::Int(1)});
  auto result = ExecuteForeignJoin(JoinMethodKind::kTS, BeliefSpec(), rows,
                                   source_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(source_.meter().invocations, 5u);  // NULL never sent
  EXPECT_EQ(NamePairs(*result, left_width()), kBeliefPairs);
}

TEST_F(JoinMethodsTest, RTPCorrectness) {
  auto result = ExecuteForeignJoin(JoinMethodKind::kRTP, BeliefSpec(),
                                   table_->rows(), source_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(NamePairs(*result, left_width()), kBeliefPairs);
  // Exactly one search regardless of relation size.
  EXPECT_EQ(source_.meter().invocations, 1u);
  // Both 'belief' documents fetched and SQL-matched.
  EXPECT_EQ(source_.meter().long_docs, 2u);
  EXPECT_EQ(source_.meter().relational_matches, 2u);
}

TEST_F(JoinMethodsTest, RTPRequiresSelections) {
  auto result = ExecuteForeignJoin(JoinMethodKind::kRTP, CoauthorSpec(),
                                   table_->rows(), source_);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(JoinMethodsTest, SemiJoinDocidOnly) {
  ForeignJoinSpec spec = BaseSpec();
  spec.selections = {{"text", "title"}};
  spec.joins = {{"student.name", "author"}};
  spec.left_columns_needed = false;
  spec.need_document_fields = false;
  auto result = ExecuteForeignJoin(JoinMethodKind::kSJ, spec, table_->rows(),
                                   source_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(DocidSet(*result, left_width()),
            (std::set<std::string>{"d2", "d5"}));
  // 5 disjuncts of 1 term + 1 selection term fit in one M=70 search.
  EXPECT_EQ(source_.meter().invocations, 1u);
  EXPECT_EQ(source_.meter().long_docs, 0u);  // no fetch for docid output
}

TEST_F(JoinMethodsTest, SemiJoinRejectsWhenOuterColumnsNeeded) {
  ForeignJoinSpec spec = BeliefSpec();
  spec.left_columns_needed = true;
  auto result = ExecuteForeignJoin(JoinMethodKind::kSJ, spec, table_->rows(),
                                   source_);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(JoinMethodsTest, SemiJoinBatchingUnderTermLimit) {
  // With M = 3 and 1 selection term, capacity is 2 disjuncts per search:
  // 5 distinct names => 3 batches.
  engine_->set_max_search_terms(3);
  ForeignJoinSpec spec = BaseSpec();
  spec.selections = {{"text", "title"}};
  spec.joins = {{"student.name", "author"}};
  spec.left_columns_needed = false;
  spec.need_document_fields = false;
  auto result = ExecuteForeignJoin(JoinMethodKind::kSJ, spec, table_->rows(),
                                   source_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(source_.meter().invocations, 3u);
  EXPECT_EQ(DocidSet(*result, left_width()),
            (std::set<std::string>{"d2", "d5"}));
}

TEST_F(JoinMethodsTest, SemiJoinFailsWhenDisjunctExceedsM) {
  engine_->set_max_search_terms(2);
  ForeignJoinSpec spec = CoauthorSpec();  // 2 join terms per disjunct
  spec.selections = {{"text", "title"}};  // +1 selection term > M
  spec.left_columns_needed = false;
  spec.need_document_fields = false;
  auto result = ExecuteForeignJoin(JoinMethodKind::kSJ, spec, table_->rows(),
                                   source_);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(JoinMethodsTest, SemiJoinRTPCorrectness) {
  auto result = ExecuteForeignJoin(JoinMethodKind::kSJRTP, BeliefSpec(),
                                   table_->rows(), source_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(NamePairs(*result, left_width()), kBeliefPairs);
  // One OR-batched search; distinct matched docs fetched once each.
  EXPECT_EQ(source_.meter().invocations, 1u);
  EXPECT_EQ(source_.meter().long_docs, 2u);  // d1, d4 (distinct)
}

TEST_F(JoinMethodsTest, SemiJoinRTPTwoPredicateJoin) {
  auto result = ExecuteForeignJoin(JoinMethodKind::kSJRTP, CoauthorSpec(),
                                   table_->rows(), source_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(NamePairs(*result, left_width()), kCoauthorPairs);
}

TEST_F(JoinMethodsTest, ProbeTSCorrectnessAndSavings) {
  // Probe on the advisor column (predicate index 1). The five (name,
  // advisor) combinations run in key order and share two advisors:
  // Garcia (Gravano, Kao, Radhika) and Ullman (Smith, Yan).
  RecordingSource recorder(&source_);
  pipeline::PipelineProfile profile;
  auto result = ExecuteForeignJoin(JoinMethodKind::kPTS, CoauthorSpec(),
                                   table_->rows(), recorder,
                                   /*probe_mask=*/0b10, /*pool=*/nullptr,
                                   FaultPolicy{}, &profile);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(NamePairs(*result, left_width()), kCoauthorPairs);
  // Section 3.3's policy, exactly. Gravano's full search hits, which
  // records success for Garcia, so the misses of Kao and Radhika send no
  // Garcia probe. Smith's full search misses while Yan still shares
  // Ullman, so the Ullman probe goes out; it fails, and Yan is skipped
  // without a search.
  const std::vector<std::string> expected = {
      AuthorsQuery({"Gravano", "Garcia"}), AuthorsQuery({"Kao", "Garcia"}),
      AuthorsQuery({"Radhika", "Garcia"}), AuthorsQuery({"Smith", "Ullman"}),
      AuthorsQuery({"Ullman"})};
  EXPECT_EQ(recorder.searches(), expected);
  EXPECT_EQ(source_.meter().invocations, 5u);
  // 4 full searches in SearchDispatch, 1 probe in ProbeFilter.
  std::map<pipeline::StageKind, uint64_t> invocations;
  for (const pipeline::StageStats& stage : profile.stages) {
    invocations[stage.desc.kind] += stage.invocations;
  }
  EXPECT_EQ(invocations[pipeline::StageKind::kSearchDispatch], 4u);
  EXPECT_EQ(invocations[pipeline::StageKind::kProbeFilter], 1u);
}

TEST_F(JoinMethodsTest, ProbeTSWithProbeOnFirstColumn) {
  auto result = ExecuteForeignJoin(JoinMethodKind::kPTS, CoauthorSpec(),
                                   table_->rows(), source_,
                                   /*probe_mask=*/0b01);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(NamePairs(*result, left_width()), kCoauthorPairs);
}

TEST_F(JoinMethodsTest, ProbeTSRequiresValidMask) {
  EXPECT_EQ(ExecuteForeignJoin(JoinMethodKind::kPTS, CoauthorSpec(),
                               table_->rows(), source_, 0)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ExecuteForeignJoin(JoinMethodKind::kPTS, CoauthorSpec(),
                               table_->rows(), source_, 0b100)
                .status()
                .code(),
            StatusCode::kOutOfRange);
}

TEST_F(JoinMethodsTest, NonProbeMethodRejectsMask) {
  EXPECT_EQ(ExecuteForeignJoin(JoinMethodKind::kTS, BeliefSpec(),
                               table_->rows(), source_, 0b1)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(JoinMethodsTest, ProbeRTPCorrectness) {
  auto result = ExecuteForeignJoin(JoinMethodKind::kPRTP, CoauthorSpec(),
                                   table_->rows(), source_,
                                   /*probe_mask=*/0b10);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(NamePairs(*result, left_width()), kCoauthorPairs);
  // 2 probes (Garcia, Ullman); Garcia matches d3 and d5, fetched once each.
  EXPECT_EQ(source_.meter().invocations, 2u);
  EXPECT_EQ(source_.meter().long_docs, 2u);
}

TEST_F(JoinMethodsTest, ProbeRTPDedupsFetchesAcrossProbes) {
  // Probe on name: Gravano matches {d2,d3}, Kao matches {d2,d4} — d2 must
  // be fetched only once.
  auto result = ExecuteForeignJoin(JoinMethodKind::kPRTP, CoauthorSpec(),
                                   table_->rows(), source_,
                                   /*probe_mask=*/0b01);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(NamePairs(*result, left_width()), kCoauthorPairs);
  // Matched docs: Radhika{d1} Gravano{d2,d3} Kao{d2,d4} Smith{d1,d5}
  // Yan{d6} => distinct {d1..d6} = 6, not 8.
  EXPECT_EQ(source_.meter().long_docs, 6u);
}

TEST_F(JoinMethodsTest, AllGeneralMethodsAgreeOnBeliefQuery) {
  const std::vector<JoinMethodKind> methods = {
      JoinMethodKind::kTS, JoinMethodKind::kRTP, JoinMethodKind::kSJRTP};
  for (JoinMethodKind method : methods) {
    auto result = ExecuteForeignJoin(method, BeliefSpec(), table_->rows(),
                                     source_);
    ASSERT_TRUE(result.ok()) << JoinMethodName(method);
    EXPECT_EQ(NamePairs(*result, left_width()), kBeliefPairs)
        << JoinMethodName(method);
  }
  // Probing methods on the single-predicate join (mask = the predicate).
  for (JoinMethodKind method :
       {JoinMethodKind::kPTS, JoinMethodKind::kPRTP}) {
    auto result = ExecuteForeignJoin(method, BeliefSpec(), table_->rows(),
                                     source_, 0b1);
    ASSERT_TRUE(result.ok()) << JoinMethodName(method);
    EXPECT_EQ(NamePairs(*result, left_width()), kBeliefPairs)
        << JoinMethodName(method);
  }
}

TEST_F(JoinMethodsTest, EmptyRelationYieldsEmptyResultCheaply) {
  std::vector<Row> empty;
  for (JoinMethodKind method : {JoinMethodKind::kTS, JoinMethodKind::kSJRTP,
                                JoinMethodKind::kPTS}) {
    source_.ResetMeter();
    const PredicateMask mask =
        method == JoinMethodKind::kPTS ? 0b1 : PredicateMask{0};
    auto result =
        ExecuteForeignJoin(method, BeliefSpec(), empty, source_, mask);
    ASSERT_TRUE(result.ok()) << JoinMethodName(method);
    EXPECT_TRUE(result->rows.empty());
    EXPECT_EQ(source_.meter().invocations, 0u) << JoinMethodName(method);
  }
}

TEST_F(JoinMethodsTest, SemiJoinOutputModeWithDocumentFields) {
  ForeignJoinSpec spec = BaseSpec();
  spec.selections = {{"text", "title"}};
  spec.joins = {{"student.name", "author"}};
  spec.left_columns_needed = false;
  spec.need_document_fields = true;
  auto result = ExecuteForeignJoin(JoinMethodKind::kSJ, spec, table_->rows(),
                                   source_);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(source_.meter().long_docs, 2u);
  // Title column populated.
  for (const Row& row : result->rows) {
    EXPECT_FALSE(row.at(left_width() + 1).is_null());
  }
}

TEST_F(JoinMethodsTest, ProbeSemiJoinReduceKeepsOnlyMatchingGroups) {
  auto survivors = ProbeSemiJoinReduce(CoauthorSpec(), table_->rows(),
                                       source_, /*probe_mask=*/0b10);
  ASSERT_TRUE(survivors.ok());
  // Advisor Garcia matches docs; Ullman doesn't. Garcia's students survive.
  EXPECT_EQ(survivors->size(), 3u);
  EXPECT_EQ(source_.meter().invocations, 2u);  // one probe per advisor
}

TEST_F(JoinMethodsTest, ProbeSemiJoinReduceOnNameColumn) {
  auto survivors = ProbeSemiJoinReduce(CoauthorSpec(), table_->rows(),
                                       source_, /*probe_mask=*/0b01);
  ASSERT_TRUE(survivors.ok());
  // Every student name matches at least one document.
  EXPECT_EQ(survivors->size(), 5u);
  EXPECT_EQ(source_.meter().invocations, 5u);
}

TEST_F(JoinMethodsTest, ProbeSemiJoinWithSelections) {
  ForeignJoinSpec spec = BeliefSpec();
  auto survivors =
      ProbeSemiJoinReduce(spec, table_->rows(), source_, /*probe_mask=*/0b1);
  ASSERT_TRUE(survivors.ok());
  // Only Radhika, Smith, Kao co-occur with 'belief' titles.
  EXPECT_EQ(survivors->size(), 3u);
}

TEST_F(JoinMethodsTest, UnknownFieldIsRejected) {
  ForeignJoinSpec spec = BaseSpec();
  spec.joins = {{"student.name", "nofield"}};
  EXPECT_EQ(ExecuteForeignJoin(JoinMethodKind::kTS, spec, table_->rows(),
                               source_)
                .status()
                .code(),
            StatusCode::kNotFound);
}

TEST_F(JoinMethodsTest, UnknownColumnIsRejected) {
  ForeignJoinSpec spec = BaseSpec();
  spec.joins = {{"student.nocolumn", "author"}};
  EXPECT_EQ(ExecuteForeignJoin(JoinMethodKind::kTS, spec, table_->rows(),
                               source_)
                .status()
                .code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace textjoin
