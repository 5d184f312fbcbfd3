#include "tracing.h"

#include <cstdio>

namespace perfbench {

std::atomic<uint64_t>* g_alloc_counter = nullptr;

namespace {

thread_local uint64_t t_query = 0;
std::atomic<uint64_t> g_query{0};

}  // namespace

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kQuery:
      return "service.run";
    case Layer::kPlan:
      return "core.plan";
    case Layer::kConnectorSearch:
      return "connector.search";
    case Layer::kConnectorFetch:
      return "connector.fetch";
    case Layer::kTextSearch:
      return "text.search";
    case Layer::kTextFetch:
      return "text.fetch";
    case Layer::kCount:
      break;
  }
  return "?";
}

void SetCurrentQuery(uint64_t query) {
  t_query = query;
  g_query.store(query, std::memory_order_relaxed);
}

uint64_t CurrentQuery() {
  return t_query != 0 ? t_query : g_query.load(std::memory_order_relaxed);
}

SpanLog::Buffer* SpanLog::ThreadBuffer() {
  // One log per run, so a thread-local cache of "my buffer" is enough.
  thread_local SpanLog* owner = nullptr;
  thread_local Buffer* buffer = nullptr;
  if (owner != this) {
    auto fresh = std::make_unique<Buffer>();
    fresh->spans.reserve(1 << 14);
    buffer = fresh.get();
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::move(fresh));
    owner = this;
  }
  return buffer;
}

void SpanLog::Record(Layer layer, int64_t start_ns, int64_t end_ns) {
  if (!enabled()) return;
  Buffer* buffer = ThreadBuffer();
  if (layer == Layer::kTextSearch || layer == Layer::kTextFetch) {
    LayerTotals& tally = buffer->tallies[static_cast<size_t>(layer)];
    tally.seconds += static_cast<double>(end_ns - start_ns) * 1e-9;
    ++tally.spans;
    return;
  }
  buffer->spans.push_back(Span{layer, CurrentQuery(), start_ns, end_ns});
}

std::vector<SpanLog::LayerTotals> SpanLog::Totals() const {
  std::vector<LayerTotals> totals(static_cast<size_t>(Layer::kCount));
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) {
    for (size_t layer = 0; layer < totals.size(); ++layer) {
      totals[layer].seconds += buffer->tallies[layer].seconds;
      totals[layer].spans += buffer->tallies[layer].spans;
    }
    for (const Span& span : buffer->spans) {
      LayerTotals& t = totals[static_cast<size_t>(span.layer)];
      t.seconds += static_cast<double>(span.end_ns - span.start_ns) * 1e-9;
      ++t.spans;
    }
  }
  return totals;
}

bool SpanLog::WriteTsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& buffer : buffers_) {
    for (const Span& span : buffer->spans) {
      std::fprintf(out, "%s\t%llu\t%lld\t%lld\n", LayerName(span.layer),
                   static_cast<unsigned long long>(span.query),
                   static_cast<long long>(span.start_ns),
                   static_cast<long long>(span.end_ns - span.start_ns));
    }
  }
  return std::fclose(out) == 0;
}

textjoin::Result<std::vector<std::string>> TracingSource::Search(
    const textjoin::TextQuery& query) const {
  const int64_t start = NowNs();
  auto result = inner_->Search(query);
  log_->Record(Layer::kConnectorSearch, start, NowNs());
  counters_->searches.fetch_add(1, std::memory_order_relaxed);
  if (result.ok() && result->empty()) {
    counters_->empty_searches.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

textjoin::Result<textjoin::Document> TracingSource::Fetch(
    const std::string& docid) const {
  const int64_t start = NowNs();
  auto result = inner_->Fetch(docid);
  log_->Record(Layer::kConnectorFetch, start, NowNs());
  counters_->fetches.fetch_add(1, std::memory_order_relaxed);
  return result;
}

textjoin::Result<textjoin::EngineSearchResult> TracingCorpus::Search(
    const textjoin::TextQuery& query) const {
  const int64_t start = NowNs();
  auto result = inner_->Search(query);
  log_->Record(Layer::kTextSearch, start, NowNs());
  return result;
}

const textjoin::Document& TracingCorpus::GetDocument(
    textjoin::DocNum num) const {
  const int64_t start = NowNs();
  const textjoin::Document& doc = inner_->GetDocument(num);
  log_->Record(Layer::kTextFetch, start, NowNs());
  return doc;
}

textjoin::Result<textjoin::DocNum> TracingCorpus::FindDocid(
    const std::string& docid) const {
  const int64_t start = NowNs();
  auto result = inner_->FindDocid(docid);
  log_->Record(Layer::kTextFetch, start, NowNs());
  return result;
}

std::shared_ptr<const textjoin::SearchableCorpus> TracingCorpus::SnapshotAt(
    uint64_t epoch) const {
  std::shared_ptr<const textjoin::SearchableCorpus> snapshot =
      inner_->SnapshotAt(epoch);
  if (snapshot == nullptr) return nullptr;
  return std::make_shared<TracingCorpus>(std::move(snapshot), log_);
}

}  // namespace perfbench
