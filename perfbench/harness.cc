#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdint>

#include "relational/tuple.h"

namespace perfbench {

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

uint64_t DrawRng::Next() {
  state_ += 0x9e3779b97f4a7c15ull;
  uint64_t z = state_;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double DrawRng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

uint64_t DrawRng::Below(uint64_t n) {
  // Multiply-shift; the bias is below 2^-32 for every n used here.
  return static_cast<uint64_t>(
      (static_cast<unsigned __int128>(Next()) * n) >> 64);
}

Zipf::Zipf(size_t n, double theta) {
  cdf_.reserve(n);
  double total = 0.0;
  for (size_t r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), theta);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

size_t Zipf::Draw(DrawRng& rng) const {
  const double u = rng.NextDouble();
  const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
  return std::min<size_t>(static_cast<size_t>(it - cdf_.begin()),
                          cdf_.size() - 1);
}

std::vector<size_t> Permutation(size_t n, DrawRng& rng) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  for (size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.Below(i)]);
  }
  return order;
}

std::vector<WriteOp> MakeWriteSchedule(uint64_t seed, double rate,
                                       double seconds, size_t slots) {
  DrawRng rng(seed);
  std::vector<bool> present(slots, false);
  std::vector<size_t> live;  // Slots currently present, for O(1) picks.
  std::vector<WriteOp> ops;
  double t = 0.0;
  while (true) {
    t += -std::log(1.0 - rng.NextDouble()) / rate;
    if (t >= seconds) break;
    WriteOp op;
    op.at_seconds = t;
    const double u = rng.NextDouble();
    // Half inserts, a quarter each updates and deletes; fall back to an
    // insert when nothing exists yet and to an update when every slot is
    // taken.
    if (live.empty() || (u < 0.5 && live.size() < slots)) {
      uint64_t slot = rng.Below(slots);
      while (present[slot]) slot = (slot + 1) % slots;
      present[slot] = true;
      live.push_back(slot);
      op.kind = WriteOp::Kind::kInsert;
      op.slot = slot;
    } else {
      const size_t pick = rng.Below(live.size());
      op.slot = live[pick];
      if (u < 0.75) {
        op.kind = WriteOp::Kind::kUpdate;
      } else {
        op.kind = WriteOp::Kind::kDelete;
        present[op.slot] = false;
        live[pick] = live.back();
        live.pop_back();
      }
    }
    ops.push_back(op);
  }
  return ops;
}

namespace {

/// ceil(pct% of n), tolerant of the rounding in pct / 100 * n (99.99% of
/// 100000 must be rank 99990, not 99991).
double NearestRank(double pct, double n) {
  return std::ceil(pct / 100.0 * n - 1e-9);
}

}  // namespace

double PercentileOfSorted(const std::vector<double>& sorted, double pct) {
  const double n = static_cast<double>(sorted.size());
  size_t rank = static_cast<size_t>(NearestRank(pct, n));
  rank = std::clamp<size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return PercentileOfSorted(values, 50.0);
}

double HighestQualifyingPercentile(size_t n) {
  static const double kReported[] = {99.99, 99.9, 99.0, 90.0, 50.0};
  for (double pct : kReported) {
    const double rank = NearestRank(pct, static_cast<double>(n));
    if (static_cast<double>(n) - rank >= 10.0) return pct;
  }
  return 0.0;
}

LatencySummary Summarize(std::vector<double> values) {
  LatencySummary s;
  s.samples = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.p50 = PercentileOfSorted(values, 50.0);
  s.p99 = PercentileOfSorted(values, 99.0);
  s.tail_pct = HighestQualifyingPercentile(values.size());
  if (s.tail_pct > 0.0) s.tail = PercentileOfSorted(values, s.tail_pct);
  return s;
}

WindowedSummary SummarizeWindows(const std::vector<Sample>& samples,
                                 int64_t start_ns, int64_t window_ns,
                                 size_t windows) {
  std::vector<std::vector<double>> bins(windows);
  for (const Sample& sample : samples) {
    if (sample.done_ns < start_ns) continue;
    const auto bin =
        static_cast<size_t>((sample.done_ns - start_ns) / window_ns);
    if (bin < windows) bins[bin].push_back(sample.latency_us);
  }
  WindowedSummary out;
  out.windows = windows;
  std::vector<double> p50, p90;
  for (size_t i = 0; i < bins.size(); ++i) {
    std::vector<double>& bin = bins[i];
    out.samples += bin.size();
    out.min_bin_samples =
        i == 0 ? bin.size() : std::min(out.min_bin_samples, bin.size());
    out.bin_qps.push_back(static_cast<double>(bin.size()) * 1e9 /
                          static_cast<double>(window_ns));
    if (bin.empty()) continue;
    std::sort(bin.begin(), bin.end());
    p50.push_back(PercentileOfSorted(bin, 50.0));
    p90.push_back(PercentileOfSorted(bin, 90.0));
    out.bin_p99.push_back(PercentileOfSorted(bin, 99.0));
  }
  if (p50.empty()) return out;  // No samples at all.
  out.qps = Median(out.bin_qps);
  out.p50 = Median(p50);
  out.p90 = Median(p90);
  out.p99 = Median(out.bin_p99);
  return out;
}

FloorSummary SummarizeFloors(const std::vector<Sample>& samples,
                             size_t num_queries, double floor_pct) {
  std::vector<std::vector<double>> by_query(num_queries);
  for (const Sample& sample : samples) {
    by_query[sample.query].push_back(sample.latency_us);
  }
  FloorSummary out;
  out.query_floor.assign(num_queries, 0.0);
  for (size_t q = 0; q < num_queries; ++q) {
    if (by_query[q].empty()) continue;
    std::sort(by_query[q].begin(), by_query[q].end());
    out.query_floor[q] = PercentileOfSorted(by_query[q], floor_pct);
  }
  std::vector<double> requests;
  requests.reserve(samples.size());
  for (const Sample& sample : samples) {
    requests.push_back(out.query_floor[sample.query]);
  }
  if (requests.empty()) return out;
  std::sort(requests.begin(), requests.end());
  out.p50 = PercentileOfSorted(requests, 50.0);
  out.p90 = PercentileOfSorted(requests, 90.0);
  return out;
}

RowsFingerprint FingerprintRows(const textjoin::ExecutionResult& result) {
  RowsFingerprint fp;
  fp.rows = result.rows.size();
  for (const textjoin::Row& row : result.rows) {
    fp.hash += Mix(textjoin::HashRow(row), 0);
  }
  return fp;
}

bool MatchesReference(const Reference& reference, const RowsFingerprint& rows,
                      const textjoin::AccessMeter& meter) {
  if (!(rows == reference.rows)) return false;
  return !reference.check_meter || meter == reference.meter;
}

bool ValidMetricName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  const auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name[0])) return false;
  for (char c : name) {
    if (!alnum(c) && c != '_' && c != '.' && c != '-') return false;
  }
  return true;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].value);
    if (i != 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + value +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
