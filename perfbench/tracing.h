#ifndef PERFBENCH_TRACING_H_
#define PERFBENCH_TRACING_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "connector/text_source.h"
#include "text/searchable.h"

/// \file
/// The traced run's plumbing, all outside src/: an in-memory span log, a
/// connector decorator and a corpus wrapper that time every call into
/// their layer, and the hook to the counting allocator. Untraced runs
/// construct none of it.

namespace perfbench {

/// The layers spans are recorded for. Names double as trace-file labels.
enum class Layer {
  kQuery,            ///< One FederationService::Run, client side.
  kPlan,             ///< FederationService::Explain under load.
  kConnectorSearch,  ///< TextSource::Search at the replica.
  kConnectorFetch,   ///< TextSource::Fetch at the replica.
  kTextSearch,       ///< SearchableCorpus::Search.
  kTextFetch,        ///< SearchableCorpus::FindDocid + GetDocument.
  kCount,
};
const char* LayerName(Layer layer);

/// One timed call: which layer, which query caused it (0 = unattributed),
/// and its start/end in steady-clock nanoseconds.
struct Span {
  Layer layer;
  uint64_t query;
  int64_t start_ns;
  int64_t end_ns;
};

/// Spans kept in memory, one buffer per recording thread so recording
/// takes no shared lock after a thread's first span. Written out once, at
/// the end of the run. Text-server calls (a hundred or more per query
/// under oracle statistics, each well under a microsecond) are tallied
/// per thread instead of kept one span each.
class SpanLog {
 public:
  SpanLog() = default;
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Recording is off until enabled; a disabled log drops spans (the
  /// traced run's untraced comparison window).
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  void Record(Layer layer, int64_t start_ns, int64_t end_ns);

  /// Sum of durations and number of spans per layer.
  struct LayerTotals {
    double seconds = 0.0;
    uint64_t spans = 0;
  };
  std::vector<LayerTotals> Totals() const;

  /// Writes every span as "layer<TAB>query<TAB>start_ns<TAB>dur_ns" lines.
  bool WriteTsv(const std::string& path) const;

 private:
  struct Buffer {
    std::vector<Span> spans;
    std::vector<LayerTotals> tallies =
        std::vector<LayerTotals>(static_cast<size_t>(Layer::kCount));
  };
  Buffer* ThreadBuffer();

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;  ///< Guards buffers_ (not their contents).
  std::vector<std::unique_ptr<Buffer>> buffers_;
};

/// Nanoseconds on the steady clock.
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The query a span belongs to: the calling thread's current query, or —
/// for pool threads running a single client's query — the process-wide
/// one. Set by the client loop around each Run().
void SetCurrentQuery(uint64_t query);
uint64_t CurrentQuery();

/// Counters the connector decorator adds to besides its spans.
struct ConnectorCounters {
  std::atomic<uint64_t> searches{0};
  std::atomic<uint64_t> fetches{0};
  std::atomic<uint64_t> empty_searches{0};  ///< The paper's fail-queries.
};

/// Times every Search/Fetch of one replica's execution source. Installed
/// through FederationService::Options::execution_source_decorator, so it
/// sits below the cross-query cache and above the metered remote.
class TracingSource final : public textjoin::TextSourceDecorator {
 public:
  TracingSource(textjoin::TextSource* inner, SpanLog* log,
                ConnectorCounters* counters)
      : TextSourceDecorator(inner), log_(log), counters_(counters) {}

  textjoin::Result<std::vector<std::string>> Search(
      const textjoin::TextQuery& query) const override;
  textjoin::Result<textjoin::Document> Fetch(
      const std::string& docid) const override;

 private:
  SpanLog* log_;
  ConnectorCounters* counters_;
};

/// Times the text server's Search and docid lookup/retrieval. Placed in
/// the topology in place of the real corpus; a live corpus's snapshots are
/// wrapped too, so queries pinned to an epoch stay timed.
class TracingCorpus final : public textjoin::SearchableCorpus {
 public:
  /// Wraps `inner` (not owned).
  TracingCorpus(const textjoin::SearchableCorpus* inner, SpanLog* log)
      : inner_(inner), log_(log) {}
  /// Wraps and keeps alive a snapshot.
  TracingCorpus(std::shared_ptr<const textjoin::SearchableCorpus> owned,
                SpanLog* log)
      : owned_(std::move(owned)), inner_(owned_.get()), log_(log) {}

  textjoin::Result<textjoin::EngineSearchResult> Search(
      const textjoin::TextQuery& query) const override;
  const textjoin::Document& GetDocument(textjoin::DocNum num) const override;
  textjoin::Result<textjoin::DocNum> FindDocid(
      const std::string& docid) const override;
  size_t num_documents() const override { return inner_->num_documents(); }
  size_t max_search_terms() const override {
    return inner_->max_search_terms();
  }
  int max_concurrency() const override { return inner_->max_concurrency(); }
  bool mutable_corpus() const override { return inner_->mutable_corpus(); }
  std::shared_ptr<const textjoin::SearchableCorpus> SnapshotAt(
      uint64_t epoch) const override;
  textjoin::CorpusPinInfo pin_info() const override {
    return inner_->pin_info();
  }

 private:
  std::shared_ptr<const textjoin::SearchableCorpus> owned_;
  const textjoin::SearchableCorpus* inner_;
  SpanLog* log_;
};

/// Allocations counted by the traced binary's replacement operator new;
/// null in the untraced binary, which replaces nothing.
extern std::atomic<uint64_t>* g_alloc_counter;

}  // namespace perfbench

#endif  // PERFBENCH_TRACING_H_
