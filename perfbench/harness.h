#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "connector/cost_meter.h"
#include "core/executor.h"

/// \file
/// Workload-independent pieces of the repository benchmark: deterministic
/// draws, latency summaries, the correctness gate and the result line.
/// Kept free of FederationService so the benchmark's own tests can pin
/// them without building a corpus.

namespace perfbench {

/// SplitMix64 step: the one seed mixer every derived seed goes through, so
/// a workload seed fixes every input regardless of standard-library
/// distribution implementations.
uint64_t Mix(uint64_t seed, uint64_t stream);

/// A tiny deterministic generator (SplitMix64 sequence). Unlike
/// std::uniform_*_distribution its outputs are specified bit for bit.
class DrawRng {
 public:
  explicit DrawRng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, 1) with 53 bits.
  double NextDouble();
  /// Uniform in [0, n); n > 0.
  uint64_t Below(uint64_t n);

 private:
  uint64_t state_;
};

/// Zipf(theta) over ranks 0..n-1 by inverse CDF: rank r has weight
/// 1 / (r + 1)^theta.
class Zipf {
 public:
  Zipf(size_t n, double theta);
  size_t Draw(DrawRng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Fisher-Yates permutation of 0..n-1 driven by `rng`.
std::vector<size_t> Permutation(size_t n, DrawRng& rng);

/// One scheduled write of the open-loop writer.
struct WriteOp {
  enum class Kind { kInsert, kUpdate, kDelete };
  double at_seconds = 0.0;  ///< Send time relative to the window start.
  Kind kind = Kind::kInsert;
  uint64_t slot = 0;        ///< Which churn document ("churn-<slot>").
};

/// A seeded insert/update/delete schedule at `rate` writes per second for
/// `seconds`: exponential inter-arrival gaps, and a slot table so an update
/// or delete only ever targets a document that exists and an insert only
/// a slot that is free — no scheduled write can fail validation.
std::vector<WriteOp> MakeWriteSchedule(uint64_t seed, double rate,
                                       double seconds, size_t slots);

/// Percentile by nearest rank over `sorted` (ascending, non-empty);
/// `pct` in (0, 100].
double PercentileOfSorted(const std::vector<double>& sorted, double pct);

/// The nearest-rank median of `values` (non-empty).
double Median(std::vector<double> values);

/// The highest of the reported percentiles {50, 90, 99, 99.9, 99.99} that
/// still has at least 10 samples strictly beyond its rank among `n`
/// samples; 0 when even the median has fewer.
double HighestQualifyingPercentile(size_t n);

/// A latency distribution summarized the way every timing is reported:
/// the median, p99, and the highest percentile the sample count supports.
struct LatencySummary {
  size_t samples = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double tail_pct = 0.0;  ///< HighestQualifyingPercentile(samples).
  double tail = 0.0;      ///< The latency at tail_pct.
};
LatencySummary Summarize(std::vector<double> values);

/// One completed query: when it finished (steady-clock ns), how long it
/// took, and which of the workload's queries it was.
struct Sample {
  int64_t done_ns = 0;
  double latency_us = 0.0;
  size_t query = 0;
};

/// A run's timings as medians over equal sub-windows: the samples that
/// completed in [start_ns, start_ns + windows * window_ns) are binned by
/// completion time, each bin yields its throughput, p50, p90 and p99, and
/// each figure reported is the median over the bins — so a burst of
/// outside load moves one bin, not the result.
struct WindowedSummary {
  size_t windows = 0;
  size_t samples = 0;         ///< Samples inside the binned span.
  size_t min_bin_samples = 0;  ///< Smallest bin (its p99 needs 1000).
  double qps = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p99 = 0.0;
  std::vector<double> bin_qps;  ///< Per sub-window, in time order.
  std::vector<double> bin_p99;
};
WindowedSummary SummarizeWindows(const std::vector<Sample>& samples,
                                 int64_t start_ns, int64_t window_ns,
                                 size_t windows);

/// A run's latency floors: each distinct query's floor is the `floor_pct`
/// percentile of its own latencies, every completed request stands at its
/// query's floor, and p50 and p90 are taken over those requests. On a
/// shared host, episodes of outside load slow every query by the same
/// factor for a second or more, and a run may spend most or little of its
/// time in them, which moves the plain percentiles from run to run. A
/// floor needs only a few of a query's runs to fall outside the episodes,
/// so it reads the program's own cost, weighted by the workload's mix.
struct FloorSummary {
  double p50 = 0.0;
  double p90 = 0.0;
  std::vector<double> query_floor;  ///< Per query; 0 if it never completed.
};
FloorSummary SummarizeFloors(const std::vector<Sample>& samples,
                             size_t num_queries, double floor_pct);

/// Order-independent fingerprint of a row set: the row count plus a
/// commutative sum of mixed per-row hashes. Cheap enough to take on every
/// measured query.
struct RowsFingerprint {
  uint64_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const RowsFingerprint&) const = default;
};
RowsFingerprint FingerprintRows(const textjoin::ExecutionResult& result);

/// What a measured query must reproduce: its reference rows and, where the
/// workload demands byte-identical meters, its reference meter.
struct Reference {
  RowsFingerprint rows;
  textjoin::AccessMeter meter;
  bool check_meter = false;
};

/// True when `rows` (and `meter`, if the reference checks it) equal the
/// reference exactly.
bool MatchesReference(const Reference& reference, const RowsFingerprint& rows,
                      const textjoin::AccessMeter& meter);

/// Metric names are [A-Za-z0-9_.-]{1,64} starting with a letter or digit.
bool ValidMetricName(const std::string& name);

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The machine-readable result line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}. Values keep every significant
/// digit (%.17g).
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
