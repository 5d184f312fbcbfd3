#include "workload/traffic.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <mutex>
#include <random>
#include <thread>

#include "common/check.h"

namespace textjoin {

namespace {

/// What one arrival does when its due time comes.
enum class ArrivalKind { kQuery, kInsert, kUpdate, kDelete };

/// One scheduled arrival: when (offset from the run start), who, what.
struct Arrival {
  double due_seconds = 0.0;
  size_t spec_index = 0;
  size_t shape_index = 0;  ///< kQuery only.
  ArrivalKind kind = ArrivalKind::kQuery;
  uint64_t write_seq = 0;  ///< Per-tenant write counter (writes only).
};

/// Deterministic document content for a tenant's write_seq'th write. A
/// rotating token ("wtok<k>") gives updates real index churn; the seq
/// token makes every version distinct.
Document WriteDocument(const std::string& docid, const std::string& field,
                       uint64_t seq) {
  Document doc;
  doc.docid = docid;
  doc.fields[field] = {"wtok" + std::to_string(seq % 7) + " live w" +
                       std::to_string(seq)};
  return doc;
}

/// The docids a tenant has inserted and not yet deleted, shared across
/// generator workers. Victim picks key off the arrival's write_seq so the
/// choice depends on schedule position, not worker interleaving (the pool
/// contents still do — reports are for benches, not byte-identity).
struct DocidPool {
  std::mutex mu;
  std::vector<std::string> docids;
};

double PercentileOf(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  size_t idx = static_cast<size_t>(std::ceil(p * samples.size()));
  idx = std::min(std::max<size_t>(idx, 1), samples.size());
  return samples[idx - 1];
}

}  // namespace

std::vector<double> ZipfWeights(size_t n, double theta) {
  std::vector<double> weights;
  weights.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    weights.push_back(1.0 / std::pow(static_cast<double>(i + 1), theta));
  }
  return weights;
}

TrafficReport RunOpenLoopTraffic(FederationService& service,
                                 const std::vector<TenantTrafficSpec>& specs,
                                 const TrafficOptions& options) {
  const double duration_s =
      std::chrono::duration<double>(options.duration).count();

  // The whole schedule is drawn up front, per tenant, from its own seeded
  // stream — deterministic offered load, independent of how the service
  // keeps up (that is what "open loop" means).
  std::vector<Arrival> arrivals;
  for (size_t i = 0; i < specs.size(); ++i) {
    const TenantTrafficSpec& spec = specs[i];
    const double write_fraction =
        options.writer != nullptr ? spec.writes.total() : 0.0;
    TEXTJOIN_CHECK(write_fraction <= 1.0,
                   "write-mix fractions must sum to <= 1");
    if (spec.arrival_rate <= 0.0) continue;
    if (spec.shapes.empty() && write_fraction <= 0.0) continue;
    std::mt19937_64 rng(options.seed * 1000003ULL + i);
    std::exponential_distribution<double> inter(spec.arrival_rate);
    std::vector<double> weights;
    weights.reserve(spec.shapes.size());
    for (const TrafficShape& shape : spec.shapes) {
      TEXTJOIN_CHECK(shape.weight > 0.0, "shape %s: weight must be > 0",
                     shape.name.c_str());
      weights.push_back(shape.weight);
    }
    std::discrete_distribution<size_t> pick(weights.begin(), weights.end());
    std::uniform_real_distribution<double> coin(0.0, 1.0);
    uint64_t write_seq = 0;
    for (double t = inter(rng); t < duration_s; t += inter(rng)) {
      Arrival arrival;
      arrival.due_seconds = t;
      arrival.spec_index = i;
      // Classify: the seeded coin splits arrivals into the write kinds by
      // their cumulative fractions; the remainder (or everything, for a
      // read-only tenant) stays queries. A tenant with no shapes and a
      // partial write mix pushes its read share back into inserts.
      const double u = write_fraction > 0.0 ? coin(rng) : 1.0;
      if (u < spec.writes.insert_fraction ||
          (spec.shapes.empty() && u >= write_fraction)) {
        arrival.kind = ArrivalKind::kInsert;
      } else if (u < spec.writes.insert_fraction +
                         spec.writes.update_fraction) {
        arrival.kind = ArrivalKind::kUpdate;
      } else if (u < write_fraction) {
        arrival.kind = ArrivalKind::kDelete;
      } else {
        arrival.kind = ArrivalKind::kQuery;
        arrival.shape_index = pick(rng);
      }
      if (arrival.kind != ArrivalKind::kQuery) {
        arrival.write_seq = write_seq++;
      }
      arrivals.push_back(arrival);
    }
  }
  std::sort(arrivals.begin(), arrivals.end(),
            [](const Arrival& a, const Arrival& b) {
              return std::tie(a.due_seconds, a.spec_index, a.shape_index) <
                     std::tie(b.due_seconds, b.spec_index, b.shape_index);
            });

  TrafficReport report;
  for (const TenantTrafficSpec& spec : specs) {
    report.tenants[spec.tenant];  // Every tenant reports, even if idle.
  }
  report.total_arrivals = arrivals.size();
  for (const Arrival& a : arrivals) {
    ++report.tenants[specs[a.spec_index].tenant].arrivals;
  }

  // Workers claim arrivals in schedule order and sleep until each one's
  // due time. When every worker is busy, later arrivals start late — and
  // their latency, measured from the DUE time, honestly includes that lag.
  std::atomic<size_t> next{0};
  std::mutex merge_mu;
  std::map<TenantId, uint64_t> lag_counts;  ///< Guarded by merge_mu.
  std::vector<std::unique_ptr<DocidPool>> pools;
  pools.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    pools.push_back(std::make_unique<DocidPool>());
  }
  const auto start = std::chrono::steady_clock::now();
  const int workers = std::max(1, options.workers);
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(workers));
  for (int w = 0; w < workers; ++w) {
    threads.emplace_back([&] {
      struct LocalStats {
        uint64_t completed = 0, shed = 0, failed = 0;
        uint64_t writes = 0, write_failures = 0;
        uint64_t lag_sum = 0, lag_count = 0, lag_max = 0;
        std::vector<double> latencies_ms;
      };
      std::map<size_t, LocalStats> local;
      for (;;) {
        const size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= arrivals.size()) break;
        const Arrival& a = arrivals[i];
        const TenantTrafficSpec& spec = specs[a.spec_index];
        const auto due =
            start + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(a.due_seconds));
        std::this_thread::sleep_until(due);  // No-op when already late.
        LocalStats& stats = local[a.spec_index];
        if (a.kind != ArrivalKind::kQuery) {
          // A write arrival: reads racing this mutation are the whole
          // point of the exercise. Updates and deletes target docids this
          // tenant inserted earlier; racing deletes can snatch a victim
          // away, which counts as a (benign) write failure.
          DocidPool& pool = *pools[a.spec_index];
          const std::string fresh_docid = "w-" + spec.tenant + "-" +
                                          std::to_string(a.write_seq);
          ArrivalKind kind = a.kind;
          std::string victim;
          {
            std::lock_guard<std::mutex> lock(pool.mu);
            if (kind == ArrivalKind::kInsert || pool.docids.empty()) {
              kind = ArrivalKind::kInsert;  // Fall back while pool is dry.
            } else {
              const size_t at = a.write_seq % pool.docids.size();
              victim = pool.docids[at];
              if (kind == ArrivalKind::kDelete) {
                // Claim it: no other generator write targets it again.
                pool.docids[at] = pool.docids.back();
                pool.docids.pop_back();
              }
            }
          }
          Result<uint64_t> epoch = uint64_t{0};
          switch (kind) {
            case ArrivalKind::kInsert:
              epoch = options.writer->Insert(
                  WriteDocument(fresh_docid, spec.writes.field, a.write_seq));
              break;
            case ArrivalKind::kUpdate:
              epoch = options.writer->Update(
                  WriteDocument(victim, spec.writes.field, a.write_seq));
              break;
            case ArrivalKind::kDelete:
              epoch = options.writer->Delete(victim);
              break;
            case ArrivalKind::kQuery:
              break;
          }
          if (epoch.ok()) {
            ++stats.writes;
            if (kind == ArrivalKind::kInsert) {
              std::lock_guard<std::mutex> lock(pool.mu);
              pool.docids.push_back(fresh_docid);
            }
          } else {
            ++stats.write_failures;
          }
          continue;
        }
        FederationService::RunOptions run;
        run.tenant = spec.run_as.has_value() ? *spec.run_as : spec.tenant;
        run.priority = spec.priority;
        if (options.deadline.has_value()) run.deadline = *options.deadline;
        auto outcome = service.Run(spec.shapes[a.shape_index].sql, run);
        const double ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - due)
                              .count();
        if (outcome.ok()) {
          ++stats.completed;
          stats.latencies_ms.push_back(ms);
          // Staleness: how far the published frontier moved past this
          // query's pin by the time it finished. published() is read
          // AFTER completion, so it is >= the pin by construction.
          if (options.clock != nullptr &&
              outcome.value().corpus.mutable_corpus) {
            const uint64_t lag = options.clock->published() -
                                 outcome.value().corpus.epoch;
            stats.lag_sum += lag;
            ++stats.lag_count;
            stats.lag_max = std::max(stats.lag_max, lag);
          }
        } else if (outcome.status().code() == StatusCode::kUnavailable ||
                   outcome.status().code() == StatusCode::kDeadlineExceeded) {
          ++stats.shed;
        } else {
          ++stats.failed;
        }
      }
      std::lock_guard<std::mutex> lock(merge_mu);
      for (auto& [spec_index, stats] : local) {
        TenantTrafficReport& tenant =
            report.tenants[specs[spec_index].tenant];
        tenant.completed += stats.completed;
        tenant.shed += stats.shed;
        tenant.failed += stats.failed;
        tenant.writes += stats.writes;
        tenant.write_failures += stats.write_failures;
        tenant.max_epoch_lag = std::max(tenant.max_epoch_lag, stats.lag_max);
        // mean_epoch_lag temporarily accumulates (sum, count) via the
        // latency-free pair below; finalized after the join.
        tenant.mean_epoch_lag += static_cast<double>(stats.lag_sum);
        lag_counts[specs[spec_index].tenant] += stats.lag_count;
        tenant.latencies_ms.insert(tenant.latencies_ms.end(),
                                   stats.latencies_ms.begin(),
                                   stats.latencies_ms.end());
      }
    });
  }
  for (std::thread& t : threads) t.join();

  const double elapsed_s = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() - start)
                               .count();
  report.window_seconds = std::max(duration_s, elapsed_s);
  for (auto& [tenant, stats] : report.tenants) {
    stats.goodput_qps =
        static_cast<double>(stats.completed) / report.window_seconds;
    stats.p50_ms = PercentileOf(stats.latencies_ms, 0.5);
    stats.p99_ms = PercentileOf(stats.latencies_ms, 0.99);
    const uint64_t lag_count = lag_counts[tenant];
    stats.mean_epoch_lag =
        lag_count > 0 ? stats.mean_epoch_lag / static_cast<double>(lag_count)
                      : 0.0;
  }
  return report;
}

}  // namespace textjoin
