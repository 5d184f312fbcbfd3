// Tests of the benchmark's own machinery: the percentile rule, the
// deterministic draws, the reference check and the metric-name charset.

#include <gtest/gtest.h>

#include <set>

#include "harness.h"
#include "workloads.h"

namespace perfbench {
namespace {

using textjoin::AccessMeter;
using textjoin::ExecutionResult;
using textjoin::Value;

TEST(PercentileRule, NeedsTenSamplesBeyond) {
  EXPECT_EQ(HighestQualifyingPercentile(10), 0.0);
  EXPECT_EQ(HighestQualifyingPercentile(20), 50.0);
  EXPECT_EQ(HighestQualifyingPercentile(99), 50.0);
  EXPECT_EQ(HighestQualifyingPercentile(100), 90.0);
  EXPECT_EQ(HighestQualifyingPercentile(999), 90.0);
  EXPECT_EQ(HighestQualifyingPercentile(1000), 99.0);
  EXPECT_EQ(HighestQualifyingPercentile(10000), 99.9);
  EXPECT_EQ(HighestQualifyingPercentile(100000), 99.99);
}

TEST(PercentileRule, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_EQ(PercentileOfSorted(v, 50.0), 500.0);
  EXPECT_EQ(PercentileOfSorted(v, 99.0), 990.0);
  const LatencySummary s = Summarize(v);
  EXPECT_EQ(s.samples, 1000u);
  EXPECT_EQ(s.tail_pct, 99.0);
  EXPECT_EQ(s.tail, 990.0);
}

TEST(PercentileRule, SubWindowMediansIgnoreOneBurst) {
  // Three 1-second sub-windows of 1000 queries each; the middle one is
  // slow and half as busy. Samples before the start or past the last
  // sub-window do not count.
  std::vector<Sample> samples;
  const int64_t second = 1'000'000'000;
  for (int w = 0; w < 3; ++w) {
    const int n = w == 1 ? 500 : 1000;
    for (int i = 0; i < n; ++i) {
      const double latency = w == 1 ? 5000.0 : 100.0 + i % 100;
      samples.push_back({w * second + i * (second / n), latency});
    }
  }
  samples.push_back({-1, 1e9});
  samples.push_back({3 * second, 1e9});
  const WindowedSummary s = SummarizeWindows(samples, 0, second, 3);
  EXPECT_EQ(s.windows, 3u);
  EXPECT_EQ(s.samples, 2500u);
  EXPECT_EQ(s.min_bin_samples, 500u);
  EXPECT_EQ(s.qps, 1000.0);
  EXPECT_EQ(s.p50, 149.0);
  EXPECT_EQ(s.p90, 189.0);
  EXPECT_EQ(s.p99, 198.0);
  EXPECT_EQ(s.bin_p99, (std::vector<double>{198.0, 5000.0, 198.0}));
}

TEST(PercentileRule, FloorsIgnoreASlowHalf) {
  // Query 0 runs 300 times near 100 us, query 1 100 times near 1000 us.
  // The second half of the run is twice as slow, as in an episode of
  // outside load; the floors come from the first half and the request mix.
  std::vector<Sample> samples;
  for (int i = 0; i < 400; ++i) {
    const size_t query = i % 4 == 3 ? 1 : 0;
    const double base = query == 0 ? 100.0 : 1000.0;
    const double slow = i >= 200 ? 2.0 : 1.0;
    samples.push_back({i, slow * (base + i % 10), query});
  }
  const FloorSummary s = SummarizeFloors(samples, 2, 1.0);
  EXPECT_EQ(s.p50, 100.0);
  EXPECT_EQ(s.p90, 1001.0);
  EXPECT_EQ(s.query_floor, (std::vector<double>{100.0, 1001.0}));
}

TEST(Draws, ZipfIsDeterministicAndSkewed) {
  QueryPicker a(QueryPicker::Mode::kZipf, 90, 7);
  QueryPicker b(QueryPicker::Mode::kZipf, 90, 7);
  QueryPicker c(QueryPicker::Mode::kZipf, 90, 8);
  std::vector<size_t> counts(90, 0);
  bool differs = false;
  for (int i = 0; i < 20000; ++i) {
    const size_t x = a.Next();
    ASSERT_EQ(x, b.Next());
    differs |= x != c.Next();
    ++counts[x];
  }
  EXPECT_TRUE(differs);
  // Rank 0 carries 1/H_90 (about 20%) of the draws; the last rank ~0.2%.
  EXPECT_GT(counts[0], 3500u);
  EXPECT_LT(counts[0], 4500u);
  EXPECT_GT(counts[89], 0u);
}

TEST(Draws, CycleVisitsEveryQueryOncePerCycle) {
  QueryPicker picker(QueryPicker::Mode::kCycle, 5, 3);
  for (int cycle = 0; cycle < 10; ++cycle) {
    std::set<size_t> seen;
    for (int i = 0; i < 5; ++i) seen.insert(picker.Next());
    EXPECT_EQ(seen.size(), 5u);
  }
}

TEST(Draws, WriteScheduleIsDeterministicAndValid) {
  const auto a = MakeWriteSchedule(11, 500.0, 4.0, 64);
  const auto b = MakeWriteSchedule(11, 500.0, 4.0, 64);
  ASSERT_EQ(a.size(), b.size());
  EXPECT_GT(a.size(), 1800u);
  EXPECT_LT(a.size(), 2200u);
  std::vector<bool> present(64, false);
  double last = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].at_seconds, b[i].at_seconds);
    EXPECT_EQ(a[i].slot, b[i].slot);
    EXPECT_GE(a[i].at_seconds, last);
    last = a[i].at_seconds;
    ASSERT_LT(a[i].slot, 64u);
    // No write may fail validation: inserts hit free slots, updates and
    // deletes existing documents.
    if (a[i].kind == WriteOp::Kind::kInsert) {
      EXPECT_FALSE(present[a[i].slot]);
      present[a[i].slot] = true;
    } else {
      EXPECT_TRUE(present[a[i].slot]);
      if (a[i].kind == WriteOp::Kind::kDelete) present[a[i].slot] = false;
    }
  }
}

TEST(Workloads, UniversitySqlIsDistinct) {
  const auto sql = UniversitySql();
  EXPECT_EQ(sql.size(), 90u);
  EXPECT_EQ(std::set<std::string>(sql.begin(), sql.end()).size(), sql.size());
}

ExecutionResult Rows(std::vector<std::vector<std::string>> rows) {
  ExecutionResult result;
  for (const auto& row : rows) {
    textjoin::Row r;
    for (const auto& v : row) r.push_back(Value::Str(v));
    result.rows.push_back(std::move(r));
  }
  return result;
}

TEST(Reference, CatchesPerturbedRowOrMeter) {
  const ExecutionResult rows = Rows({{"Banora", "TR-1990-1"},
                                     {"Cidoke", "TR-1990-2"}});
  AccessMeter meter;
  meter.invocations = 3;
  meter.postings_processed = 120;
  const Reference reference{FingerprintRows(rows), meter, true};

  EXPECT_TRUE(MatchesReference(reference, FingerprintRows(rows), meter));
  // Row order does not matter.
  EXPECT_TRUE(MatchesReference(
      reference,
      FingerprintRows(Rows({{"Cidoke", "TR-1990-2"}, {"Banora", "TR-1990-1"}})),
      meter));
  // A changed value, a dropped row and a duplicated row all fail.
  EXPECT_FALSE(MatchesReference(
      reference,
      FingerprintRows(Rows({{"Banora", "TR-1990-1"}, {"Cidoke", "TR-1990-3"}})),
      meter));
  EXPECT_FALSE(MatchesReference(
      reference, FingerprintRows(Rows({{"Banora", "TR-1990-1"}})), meter));
  EXPECT_FALSE(MatchesReference(
      reference,
      FingerprintRows(Rows({{"Banora", "TR-1990-1"},
                            {"Cidoke", "TR-1990-2"},
                            {"Cidoke", "TR-1990-2"}})),
      meter));
  // One posting more is a meter mismatch when the reference checks meters,
  // and ignored when it does not.
  AccessMeter perturbed = meter;
  ++perturbed.postings_processed;
  EXPECT_FALSE(MatchesReference(reference, FingerprintRows(rows), perturbed));
  Reference rows_only = reference;
  rows_only.check_meter = false;
  EXPECT_TRUE(MatchesReference(rows_only, FingerprintRows(rows), perturbed));
}

TEST(Metrics, NameCharset) {
  EXPECT_TRUE(ValidMetricName("latency_p99_us"));
  EXPECT_TRUE(ValidMetricName("pipeline.SearchDispatch.wall_us"));
  EXPECT_TRUE(ValidMetricName("trace.overhead-pct"));
  EXPECT_FALSE(ValidMetricName(""));
  EXPECT_FALSE(ValidMetricName(".hidden"));
  EXPECT_FALSE(ValidMetricName("qps/s"));
  EXPECT_FALSE(ValidMetricName("with space"));
  EXPECT_FALSE(ValidMetricName(std::string(65, 'a')));
}

TEST(Metrics, ResultLineKeepsEveryDigit) {
  const std::string line =
      ResultJson(true, 10, 0, {{"qps", 1234.5678901234567, "1/s"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
            "\"metrics\": {\"qps\": {\"value\": 1234.5678901234567, "
            "\"unit\": \"1/s\"}}}");
}

}  // namespace
}  // namespace perfbench
