#ifndef TEXTJOIN_CONNECTOR_REMOTE_TEXT_SOURCE_H_
#define TEXTJOIN_CONNECTOR_REMOTE_TEXT_SOURCE_H_

#include <atomic>
#include <chrono>
#include <string>
#include <vector>

#include "connector/cost_meter.h"
#include "connector/text_source.h"
#include "text/searchable.h"

/// \file
/// The simulated remote text server: a TextEngine behind the TextSource
/// interface, with every access billed to an AccessMeter.

namespace textjoin {

/// Optional per-operation wall-clock delay, for benchmarks that want the
/// remote round-trip to take real time (the paper's setting: every search
/// or retrieval is a network exchange with a distant server). Zero (the
/// default) adds no delay and changes nothing else; the meter counts are
/// identical either way.
struct SimulatedLatency {
  std::chrono::microseconds search{0};  ///< Slept inside each Search call.
  std::chrono::microseconds fetch{0};   ///< Slept inside each Fetch call.
};

/// A TextSource that bills every access to a redirectable AtomicAccessMeter.
/// Two implementations exist: RemoteTextSource (one corpus behind one
/// endpoint) and ShardedTextSource (a scatter-gather router over many
/// endpoints, whose meter reports the aggregate *logical* cost). Profiling
/// and relational-match charging see through decorator chains down to this
/// interface via UnwrapMetered, so executors work with either.
class MeteredTextSource : public TextSource {
 public:
  /// A value snapshot of the meter currently being charged.
  virtual AccessMeter meter() const = 0;

  /// The underlying charging sink (e.g. to Add() externally tracked costs
  /// such as relational-side string matching).
  virtual AtomicAccessMeter& charging_meter() const = 0;

  /// Redirects charging to `meter` (e.g. to a separate statistics meter
  /// during sampling, whose cost the paper amortizes across queries).
  /// Passing nullptr restores the internal meter.
  virtual void SetMeter(AtomicAccessMeter* meter) = 0;

  /// Resets the internal meter (does not touch a redirected meter).
  virtual void ResetMeter() = 0;
};

/// Wraps a SearchableCorpus (in-memory TextEngine or on-disk
/// DiskTextEngine) as an external source and meters every access:
/// Search charges one invocation, the postings the engine scanned, and one
/// short-form transmission per result docid; Fetch charges one long-form
/// transmission (the paper calibrated the long-form constant to include the
/// per-retrieval connection).
///
/// Thread safety: Search/Fetch are const and safe to call concurrently —
/// charges go through relaxed atomics, so concurrent executions produce
/// meter totals byte-identical to the same operations run serially. The
/// corpus must itself be safe for concurrent const access (TextEngine and
/// DiskTextEngine both are; any corpus that is not must advertise a
/// max_concurrency() cap, which this source forwards so executors clamp
/// their parallelism). SetMeter/ResetMeter are configuration, not
/// data-path calls: do not race them against in-flight searches.
class RemoteTextSource final : public MeteredTextSource {
 public:
  /// `engine` must outlive this object.
  explicit RemoteTextSource(const SearchableCorpus* engine)
      : engine_(engine) {}

  Result<std::vector<std::string>> Search(
      const TextQuery& query) const override;
  Result<Document> Fetch(const std::string& docid) const override;
  size_t max_search_terms() const override {
    return engine_->max_search_terms();
  }
  size_t num_documents() const override { return engine_->num_documents(); }
  int max_concurrency() const override { return engine_->max_concurrency(); }

  AccessMeter meter() const override {
    return active_meter_.load(std::memory_order_acquire)->Snapshot();
  }
  AtomicAccessMeter& charging_meter() const override {
    return *active_meter_.load(std::memory_order_acquire);
  }
  void SetMeter(AtomicAccessMeter* meter) override {
    active_meter_.store(meter != nullptr ? meter : &own_meter_,
                        std::memory_order_release);
  }
  void ResetMeter() override { own_meter_.Reset(); }

  /// Installs a wall-clock delay per operation (benchmarking aid).
  void set_simulated_latency(SimulatedLatency latency) { latency_ = latency; }

 private:
  const SearchableCorpus* engine_;
  mutable AtomicAccessMeter own_meter_;
  mutable std::atomic<AtomicAccessMeter*> active_meter_{&own_meter_};
  SimulatedLatency latency_;
};

/// Walks a decorator chain (resilience, chaos, ...) down to the first
/// MeteredTextSource — a single remote or a sharded router — or null if
/// there is none. Lets profiling and relational-match charging see through
/// wrappers, so sharded topologies meter identically to a single backend.
MeteredTextSource* UnwrapMetered(TextSource* source);

/// RAII guard that redirects a MeteredTextSource's charges for a scope and
/// flushes them into a plain AccessMeter on exit (so callers keep working
/// with value-type meters).
class ScopedMeter {
 public:
  ScopedMeter(MeteredTextSource& source, AccessMeter* meter)
      : source_(source), target_(meter) {
    source_.SetMeter(&scope_meter_);
  }
  ~ScopedMeter() {
    source_.SetMeter(nullptr);
    if (target_ != nullptr) *target_ += scope_meter_.Snapshot();
  }
  ScopedMeter(const ScopedMeter&) = delete;
  ScopedMeter& operator=(const ScopedMeter&) = delete;

 private:
  MeteredTextSource& source_;
  AccessMeter* target_;
  AtomicAccessMeter scope_meter_;
};

}  // namespace textjoin

#endif  // TEXTJOIN_CONNECTOR_REMOTE_TEXT_SOURCE_H_
