#include "connector/chaos.h"

#include <thread>

namespace textjoin {

namespace {

/// SplitMix64 finalizer: a high-quality 64-bit mix, used here as a pure
/// hash so fault decisions are a function of (seed, ordinal, salt) alone.
uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr uint64_t kFailSalt = 0x1;
constexpr uint64_t kTruncateSalt = 0x3;
constexpr uint64_t kSlowSalt = 0x4;

/// Deterministic FNV-1a over the content string (std::hash is
/// implementation-defined; fault sets must not depend on the toolchain).
uint64_t HashContent(const std::string& s) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

double ChaosTextSource::Draw(uint64_t key, uint64_t salt) const {
  const uint64_t h = Mix64(options_.seed ^ Mix64(key ^ (salt << 56)));
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool ChaosTextSource::ShouldFail(uint64_t ordinal, uint64_t key,
                                 double rate) const {
  if (options_.failure_period > 0 &&
      ordinal % static_cast<uint64_t>(options_.failure_period) == 0) {
    return true;
  }
  return rate > 0.0 && Draw(key, kFailSalt) < rate;
}

void ChaosTextSource::Delay(std::chrono::microseconds delay) const {
  if (delay.count() <= 0) return;
  if (options_.latency_sink) {
    options_.latency_sink(delay);
  } else {
    // Interruptible: injected lag must not pin a cancelled query. The
    // caller re-checks the token after the latency point.
    CurrentCancelToken().SleepFor(delay);
  }
}

void ChaosTextSource::MaybeInjectCancel(uint64_t ordinal, int64_t at) const {
  if (at > 0 && ordinal == static_cast<uint64_t>(at)) {
    CurrentCancelToken().Cancel(options_.cancel_reason,
                                "chaos: injected cancellation at op " +
                                    std::to_string(ordinal));
  }
}

void ChaosTextSource::InjectLatency(uint64_t key,
                                    std::chrono::microseconds base) const {
  std::chrono::microseconds delay = base;
  if (options_.slow_rate > 0.0 &&
      Draw(key, kSlowSalt) < options_.slow_rate) {
    slow_calls_.fetch_add(1, std::memory_order_relaxed);
    delay = options_.slow_latency;
  }
  Delay(delay);
}

Result<std::vector<std::string>> ChaosTextSource::Search(
    const TextQuery& query) const {
  const uint64_t ordinal = ops_.fetch_add(1, std::memory_order_relaxed) + 1;
  MaybeInjectCancel(ordinal, options_.cancel_before_op);
  const uint64_t key =
      options_.content_keyed ? HashContent(query.ToString()) : ordinal;
  InjectLatency(key, options_.search_latency);
  // Cooperative checkpoint after the latency points: a cancelled operation
  // returns before reaching the inner source, so it charges nothing. Only
  // kCancelled (client abort / shutdown) aborts here — a deadline-armed
  // token sheds at the scheduler's dispatch instead, leaving in-flight
  // operations to complete as deadline semantics always have.
  if (Status cancel = CurrentCancelToken().Check();
      cancel.code() == StatusCode::kCancelled) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    return cancel;
  }
  if (ShouldFail(ordinal, key, options_.search_failure_rate)) {
    search_failures_.fetch_add(1, std::memory_order_relaxed);
    return Status(options_.failure_code, "chaos: injected search failure");
  }
  Result<std::vector<std::string>> result = inner_->Search(query);
  MaybeInjectCancel(ordinal, options_.cancel_after_op);
  if (!result.ok()) return result;
  if (options_.truncate_rate > 0.0 && result->size() > 1 &&
      Draw(key, kTruncateSalt) < options_.truncate_rate) {
    truncated_.fetch_add(1, std::memory_order_relaxed);
    std::vector<std::string> docids = std::move(result).value();
    docids.resize(docids.size() / 2);
    return docids;
  }
  return result;
}

Result<Document> ChaosTextSource::Fetch(const std::string& docid) const {
  const uint64_t ordinal = ops_.fetch_add(1, std::memory_order_relaxed) + 1;
  MaybeInjectCancel(ordinal, options_.cancel_before_op);
  // Salt the docid hash so a fetch and a search over equal strings draw
  // independently.
  const uint64_t key = options_.content_keyed
                           ? HashContent(docid) ^ 0x5bd1e995ULL
                           : ordinal;
  InjectLatency(key, options_.fetch_latency);
  if (Status cancel = CurrentCancelToken().Check();
      cancel.code() == StatusCode::kCancelled) {
    cancelled_.fetch_add(1, std::memory_order_relaxed);
    return cancel;
  }
  if (ShouldFail(ordinal, key, options_.fetch_failure_rate)) {
    fetch_failures_.fetch_add(1, std::memory_order_relaxed);
    return Status(options_.failure_code, "chaos: injected fetch failure");
  }
  Result<Document> result = inner_->Fetch(docid);
  MaybeInjectCancel(ordinal, options_.cancel_after_op);
  return result;
}

ChaosStats ChaosTextSource::stats() const {
  ChaosStats stats;
  stats.search_failures = search_failures_.load(std::memory_order_relaxed);
  stats.fetch_failures = fetch_failures_.load(std::memory_order_relaxed);
  stats.slow_calls = slow_calls_.load(std::memory_order_relaxed);
  stats.truncated_searches = truncated_.load(std::memory_order_relaxed);
  stats.cancelled_operations = cancelled_.load(std::memory_order_relaxed);
  stats.operations = ops_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace textjoin
