#include <gtest/gtest.h>

#include "connector/cost_meter.h"
#include "connector/remote_text_source.h"
#include "core/statistics.h"
#include "tests/test_util.h"
#include "text/query.h"

namespace textjoin {
namespace {

using textjoin::testing::MakeSmallEngine;
using textjoin::testing::MakeStudentTable;

TEST(CostMeterTest, SimulatedSeconds) {
  CostParams params;  // paper defaults: c_i=3, c_p=1e-5, c_s=0.015, c_l=4
  AccessMeter meter;
  meter.invocations = 2;
  meter.postings_processed = 100000;
  meter.short_docs = 10;
  meter.long_docs = 1;
  meter.relational_matches = 100;
  EXPECT_NEAR(meter.SimulatedSeconds(params),
              2 * 3.0 + 100000 * 0.00001 + 10 * 0.015 + 1 * 4.0 + 100 * 0.001,
              1e-9);
}

TEST(CostMeterTest, AccumulateAndReset) {
  AccessMeter a, b;
  a.invocations = 1;
  b.invocations = 2;
  b.long_docs = 3;
  a += b;
  EXPECT_EQ(a.invocations, 3u);
  EXPECT_EQ(a.long_docs, 3u);
  a.Reset();
  EXPECT_EQ(a.invocations, 0u);
}

TEST(CostMeterTest, ToStringRendering) {
  AccessMeter meter;
  meter.invocations = 5;
  EXPECT_EQ(meter.ToString(), "inv=5 post=0 short=0 long=0 rmatch=0");
}

class RemoteSourceTest : public ::testing::Test {
 protected:
  RemoteSourceTest() : engine_(MakeSmallEngine()), source_(engine_.get()) {}

  std::unique_ptr<TextEngine> engine_;
  RemoteTextSource source_;
};

TEST_F(RemoteSourceTest, SearchChargesInvocationAndTransmission) {
  auto q = ParseTextQuery("title='belief'");
  auto docids = source_.Search(**q);
  ASSERT_TRUE(docids.ok());
  EXPECT_EQ(*docids, (std::vector<std::string>{"d1", "d4"}));
  EXPECT_EQ(source_.meter().invocations, 1u);
  EXPECT_EQ(source_.meter().short_docs, 2u);
  EXPECT_EQ(source_.meter().postings_processed, 2u);
  EXPECT_EQ(source_.meter().long_docs, 0u);
}

TEST_F(RemoteSourceTest, FetchChargesLongForm) {
  auto doc = source_.Fetch("d2");
  ASSERT_TRUE(doc.ok());
  EXPECT_EQ(doc->docid, "d2");
  EXPECT_EQ(source_.meter().long_docs, 1u);
  EXPECT_EQ(source_.meter().invocations, 0u);
}

TEST_F(RemoteSourceTest, FetchUnknownDocidFailsWithoutCharge) {
  EXPECT_EQ(source_.Fetch("zzz").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(source_.meter().long_docs, 0u);
}

TEST_F(RemoteSourceTest, MeterRedirection) {
  AccessMeter stats_meter;
  {
    ScopedMeter redirect(source_, &stats_meter);
    auto q = ParseTextQuery("title='belief'");
    ASSERT_TRUE(source_.Search(**q).ok());
  }
  EXPECT_EQ(stats_meter.invocations, 1u);
  EXPECT_EQ(source_.meter().invocations, 0u);  // internal meter untouched
  // After the scope, charges go to the internal meter again.
  auto q = ParseTextQuery("title='text'");
  ASSERT_TRUE(source_.Search(**q).ok());
  EXPECT_EQ(source_.meter().invocations, 1u);
  EXPECT_EQ(stats_meter.invocations, 1u);
}

TEST_F(RemoteSourceTest, ExposesMetadata) {
  EXPECT_EQ(source_.num_documents(), 6u);
  EXPECT_EQ(source_.max_search_terms(), 70u);
}

class SamplerTest : public ::testing::Test {
 protected:
  SamplerTest()
      : engine_(MakeSmallEngine()),
        source_(engine_.get()),
        table_(MakeStudentTable()) {}

  std::unique_ptr<TextEngine> engine_;
  RemoteTextSource source_;
  std::unique_ptr<Table> table_;
};

TEST_F(SamplerTest, ExactWhenSampleCoversAllValues) {
  Rng rng(1);
  // Column 0 = name: {Radhika, Gravano, Kao, Smith, Yan}, all of which are
  // authors of exactly 1, 2, 2, 2, 1 documents respectively = 8 total.
  auto est = EstimatePredicateStats(*table_, 0, source_, "author",
                                    /*sample_size=*/100, rng);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->sample_size, 5u);
  EXPECT_DOUBLE_EQ(est->selectivity, 1.0);
  EXPECT_DOUBLE_EQ(est->fanout, 8.0 / 5.0);
}

TEST_F(SamplerTest, SelectivityBelowOne) {
  Rng rng(1);
  // Names in the title field: none of the five names appear in any title.
  auto est = EstimatePredicateStats(*table_, 0, source_, "title", 100, rng);
  ASSERT_TRUE(est.ok());
  EXPECT_DOUBLE_EQ(est->selectivity, 0.0);
  EXPECT_DOUBLE_EQ(est->fanout, 0.0);
}

TEST_F(SamplerTest, SampleSizeIsRespected) {
  Rng rng(42);
  auto est = EstimatePredicateStats(*table_, 0, source_, "author", 2, rng);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->sample_size, 2u);
}

TEST_F(SamplerTest, ChargesGoToTheActiveMeter) {
  Rng rng(1);
  AccessMeter stats_meter;
  {
    ScopedMeter redirect(source_, &stats_meter);
    ASSERT_TRUE(
        EstimatePredicateStats(*table_, 0, source_, "author", 100, rng).ok());
  }
  EXPECT_EQ(stats_meter.invocations, 5u);  // one probe per distinct name
  EXPECT_EQ(source_.meter().invocations, 0u);
}

TEST_F(SamplerTest, ErrorsOnBadColumn) {
  Rng rng(1);
  EXPECT_EQ(EstimatePredicateStats(*table_, 99, source_, "author", 10, rng)
                .status()
                .code(),
            StatusCode::kOutOfRange);
  // Integer column has no string terms.
  EXPECT_EQ(EstimatePredicateStats(*table_, 3, source_, "author", 10, rng)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace textjoin
