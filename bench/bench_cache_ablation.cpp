// Cross-query cache ablation (DESIGN.md Section 10): with every search
// and retrieval costing a simulated network round-trip, measure
//
//  - **hit rate vs key skew**: the cache only pays off when the query
//    stream repeats keys; a Zipf-like skew knob shows the hit rate rising
//    from ~0 (all-distinct) toward the repeat fraction.
//  - **warm-repeat speedup**: replaying an identical query batch against
//    a warm cache must be at least 5x faster than the cold batch (hits
//    skip the round-trip entirely).
//  - **cold overhead**: on an all-distinct stream (zero hits) the caching
//    layer's bookkeeping — canonical keys, admission, insertion — must
//    cost at most 2% over the bare metered source. The same stream with
//    no simulated latency prints the layer's CPU cost per operation
//    (informational, not gated).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "connector/remote_text_source.h"
#include "connector/text_cache.h"
#include "text/engine.h"
#include "text/query.h"

namespace {

using namespace textjoin;

constexpr size_t kVocab = 512;      // Distinct searchable title words.
constexpr auto kRoundTrip = std::chrono::microseconds(200);

std::string Word(size_t i) {
  std::string word = "word";
  word += std::to_string(i);
  return word;
}

// A corpus in which every vocabulary word matches at least one document.
std::unique_ptr<TextEngine> MakeCorpus() {
  auto engine = std::make_unique<TextEngine>();
  for (size_t i = 0; i < kVocab; ++i) {
    Document doc;
    doc.docid = "doc";
    doc.docid += std::to_string(i);
    // Exactly one searchable word per document: search i matches doc i
    // only, so an all-distinct search stream implies all-distinct fetches
    // (the cold-overhead leg requires a zero-hit workload).
    doc.fields["title"] = {Word(i)};
    doc.fields["author"] = {"Author"};
    auto r = engine->AddDocument(std::move(doc));
    TEXTJOIN_CHECK(r.ok(), "%s", r.status().ToString().c_str());
  }
  return engine;
}

// One operation: search one term, then fetch the first hit's long form.
void RunOp(const TextSource& source, const TextQuery& query) {
  auto docids = source.Search(query);
  TEXTJOIN_CHECK(docids.ok(), "%s", docids.status().ToString().c_str());
  TEXTJOIN_CHECK(!docids->empty(), "every vocab word matches a doc");
  auto doc = source.Fetch(docids->front());
  TEXTJOIN_CHECK(doc.ok(), "%s", doc.status().ToString().c_str());
}

// Wall-clock seconds to run `order` (indices into `queries`).
double TimePass(const TextSource& source,
                const std::vector<TextQueryPtr>& queries,
                const std::vector<size_t>& order) {
  const auto start = std::chrono::steady_clock::now();
  for (size_t idx : order) RunOp(source, *queries[idx]);
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Skewed key sampling: idx = floor(M * u^a). a=1 is uniform over M keys;
// larger a concentrates mass on the low indices (hot keys).
std::vector<size_t> SkewedOrder(size_t num_ops, size_t num_keys, double skew,
                                uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> uniform(0.0, 1.0);
  std::vector<size_t> order;
  order.reserve(num_ops);
  for (size_t i = 0; i < num_ops; ++i) {
    const double u = uniform(rng);
    order.push_back(std::min(
        num_keys - 1, static_cast<size_t>(num_keys * std::pow(u, skew))));
  }
  return order;
}

int Run() {
  std::printf(
      "\n==============================================================\n"
      "Cross-query cache ablation (simulated %lldus round-trip)\n"
      "==============================================================\n",
      static_cast<long long>(kRoundTrip.count()));

  auto engine = MakeCorpus();
  std::vector<TextQueryPtr> queries;
  queries.reserve(kVocab);
  for (size_t i = 0; i < kVocab; ++i) {
    queries.push_back(TextQuery::Term("title", Word(i)));
  }

  // ---- Hit rate vs key skew ----
  std::printf("\nHit rate vs key skew (%zu ops over %zu keys):\n", size_t{512},
              kVocab);
  for (double skew : {1.0, 2.0, 4.0, 8.0}) {
    RemoteTextSource remote(engine.get());
    auto cache = std::make_shared<TextCache>();
    CachingTextSource cached(&remote, cache);
    const auto order = SkewedOrder(512, kVocab, skew, 42);
    for (size_t idx : order) RunOp(cached, *queries[idx]);
    const CacheStats stats = cache->Stats();
    const uint64_t hits = stats.search_hits + stats.fetch_hits;
    const uint64_t lookups = hits + stats.search_misses + stats.fetch_misses;
    std::printf("  skew a=%.0f: hit rate %5.1f%%  (entries %zu)\n", skew,
                100.0 * static_cast<double>(hits) /
                    static_cast<double>(lookups),
                stats.entries);
  }

  // ---- Warm-repeat speedup ----
  bool ok = true;
  {
    RemoteTextSource remote(engine.get());
    remote.set_simulated_latency({kRoundTrip, kRoundTrip});
    auto cache = std::make_shared<TextCache>();
    CachingTextSource cached(&remote, cache);
    std::vector<size_t> batch(64);
    for (size_t i = 0; i < batch.size(); ++i) batch[i] = i;
    const double cold = TimePass(cached, queries, batch);
    const double warm = TimePass(cached, queries, batch);
    const double speedup = cold / warm;
    const bool pass = speedup >= 5.0;
    ok = ok && pass;
    std::printf("\nWarm-repeat speedup: cold %.1fms, warm %.1fms -> %.1fx "
                "(want >= 5x): %s\n",
                cold * 1e3, warm * 1e3, speedup, pass ? "PASS" : "FAIL");
  }

  // ---- Cold overhead ----
  // All-distinct keys: zero hits, so the difference between the bare
  // source and the caching layer is pure bookkeeping.
  std::vector<size_t> distinct(kVocab);
  for (size_t i = 0; i < distinct.size(); ++i) distinct[i] = i;
  {
    // Best-of-3 damps scheduler noise; both sides sleep the same number of
    // round-trips.
    double bare = 1e18, with_cache = 1e18;
    for (int rep = 0; rep < 3; ++rep) {
      RemoteTextSource remote(engine.get());
      remote.set_simulated_latency({kRoundTrip, kRoundTrip});
      bare = std::min(bare, TimePass(remote, queries, distinct));

      RemoteTextSource remote2(engine.get());
      remote2.set_simulated_latency({kRoundTrip, kRoundTrip});
      auto cache = std::make_shared<TextCache>();
      CachingTextSource cached(&remote2, cache);
      with_cache = std::min(with_cache, TimePass(cached, queries, distinct));
      TEXTJOIN_CHECK(cache->Stats().search_hits == 0 &&
                         cache->Stats().fetch_hits == 0,
                     "cold pass must not hit");
    }
    const double overhead = (with_cache - bare) / bare;
    const bool pass = overhead <= 0.02;
    ok = ok && pass;
    std::printf("Cold overhead: bare %.1fms, cached %.1fms -> %+.2f%% "
                "(want <= 2%%): %s\n",
                bare * 1e3, with_cache * 1e3, overhead * 100.0,
                pass ? "PASS" : "FAIL");
  }
  {
    // No simulated latency: the difference is the layer's CPU cost per
    // search+fetch. A pass takes well under a millisecond, so take the
    // best of many.
    double bare = 1e18, with_cache = 1e18;
    for (int rep = 0; rep < 50; ++rep) {
      RemoteTextSource remote(engine.get());
      bare = std::min(bare, TimePass(remote, queries, distinct));
      RemoteTextSource remote2(engine.get());
      CachingTextSource cached(&remote2, std::make_shared<TextCache>());
      with_cache = std::min(with_cache, TimePass(cached, queries, distinct));
    }
    const double per_op = 1e6 / static_cast<double>(distinct.size());
    std::printf("Zero-latency layer cost: bare %.2fus/op, cached %.2fus/op "
                "-> %+.2fus/op (informational)\n",
                bare * per_op, with_cache * per_op,
                (with_cache - bare) * per_op);
  }

  return ok ? 0 : 1;
}

}  // namespace

int main() { return Run(); }
