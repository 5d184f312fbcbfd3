// Scatter-gather scaling of the sharded text backend.
//
// Splits one corpus across N shards (docid-hash placement, the production
// partitioner) and measures single-client logical-search throughput
// through the ShardedTextSource router at N=1 vs N=4. Each shard models a
// remote text server whose service time is proportional to the index it
// scans (ChaosTextSource latency injection, the same knob the chaos tests
// use): at N=4 every server holds a quarter of the postings, the router
// fans the broadcast out on the scatter pool, and the four quarter-size
// service times overlap — so dispatch throughput should approach Nx even
// on a single-core client, which is the effect being measured. The ranked
// merge must restore the exact single-backend docid order at every point.
//
// A second leg prices failover: N=4 x R=2 with one replica of one shard
// dead — every broadcast burns that replica's fast-failing retries before
// the sibling absorbs the shard — versus the same topology healthy.
//
// Emits one JSON record per point and the machine-checked shape line:
// PASS requires >= 3x search throughput at N=4 vs N=1, byte-identical
// results, and <= 1.5x failover overhead.

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "connector/chaos.h"
#include "connector/sharding.h"
#include "text/engine.h"
#include "text/query.h"
#include "workload/sharded_corpus.h"

namespace textjoin {
namespace {

constexpr int kPoolWords = 32;
constexpr int kTitleWords = 10;
constexpr int kDocs = 20000;
constexpr int kProbeTerms = 4;
constexpr int kWarmup = 4;
constexpr int kSearches = 24;
/// Modeled server-side scan cost. 3us per resident document: the full
/// corpus answers a search in ~60ms, a quarter shard in ~15ms.
constexpr int64_t kServiceNanosPerDoc = 3000;

std::string Word(int w) { return "topic" + std::to_string(w); }

/// SplitMix64: decorrelates consecutive (doc, slot) pairs so titles are
/// independent word draws rather than a lattice pattern.
uint64_t Mix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Deterministic corpus with long posting lists: every title draws
/// kTitleWords pseudorandom words from a kPoolWords pool, so each term
/// appears in ~1/4 of the titles and a 4-term conjunction keeps a
/// non-trivial (~0.5%) match rate.
std::unique_ptr<TextEngine> MakeCorpus() {
  auto engine = std::make_unique<TextEngine>();
  for (int i = 0; i < kDocs; ++i) {
    Document doc;
    doc.docid = "d" + std::to_string(i);
    std::string title;
    for (int t = 0; t < kTitleWords; ++t) {
      const uint64_t draw = Mix(static_cast<uint64_t>(i) * 64 + t);
      if (t > 0) title += ' ';
      title += Word(static_cast<int>(draw % kPoolWords));
    }
    doc.fields["title"] = {std::move(title)};
    doc.fields["author"] = {"author" + std::to_string(i % 512)};
    auto added = engine->AddDocument(std::move(doc));
    TEXTJOIN_CHECK(added.ok(), "%s", added.status().ToString().c_str());
  }
  engine->set_exhaustive_eval(true);
  return engine;
}

TextQueryPtr MakeProbe(int i) {
  std::vector<TextQueryPtr> terms;
  terms.reserve(kProbeTerms);
  for (int t = 0; t < kProbeTerms; ++t) {
    terms.push_back(
        TextQuery::Term("title", Word((i * 5 + t * 7 + 3) % kPoolWords)));
  }
  return TextQuery::And(std::move(terms));
}

/// Decorator modeling a remote server that holds `resident_docs`
/// documents: every search pays the proportional scan latency for real
/// (no latency sink), which is what overlaps under the scatter pool.
std::function<std::unique_ptr<TextSource>(TextSource*)> SimulatedServer(
    size_t resident_docs) {
  ChaosOptions chaos;
  chaos.search_latency = std::chrono::microseconds(
      static_cast<int64_t>(resident_docs) * kServiceNanosPerDoc / 1000);
  return [chaos](TextSource* inner) -> std::unique_ptr<TextSource> {
    return std::make_unique<ChaosTextSource>(inner, chaos);
  };
}

/// Dead server: every call fails immediately, without paying service time.
std::function<std::unique_ptr<TextSource>(TextSource*)> DeadServer() {
  return [](TextSource* inner) -> std::unique_ptr<TextSource> {
    ChaosOptions chaos;
    chaos.failure_period = 1;
    return std::make_unique<ChaosTextSource>(inner, chaos);
  };
}

struct Measured {
  double wall_ms = 0.0;
  double searches_per_sec = 0.0;
  uint64_t result_docs = 0;
};

Measured MeasureSearches(const ShardedTextSource& source) {
  Measured out;
  for (int i = 0; i < kWarmup; ++i) {
    TextQueryPtr probe = MakeProbe(i);
    auto result = source.Search(*probe);
    TEXTJOIN_CHECK(result.ok(), "%s", result.status().ToString().c_str());
  }
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kSearches; ++i) {
    TextQueryPtr probe = MakeProbe(i);
    auto result = source.Search(*probe);
    TEXTJOIN_CHECK(result.ok(), "%s", result.status().ToString().c_str());
    out.result_docs += result->size();
  }
  const auto t1 = std::chrono::steady_clock::now();
  out.wall_ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.searches_per_sec = kSearches / (out.wall_ms / 1000.0);
  return out;
}

int Run() {
  std::printf(
      "Shard scaling: logical-search throughput through the router\n"
      "(%d docs, %d-term conjunctions, %dns modeled service time per\n"
      "resident doc; results must be byte-identical to the single\n"
      "backend at every point)\n\n",
      kDocs, kProbeTerms, static_cast<int>(kServiceNanosPerDoc));
  auto full = MakeCorpus();

  BackendTopology single_topology = BackendTopology::Single(full.get());
  single_topology.shards[0].replicas[0].decorator = SimulatedServer(kDocs);
  ShardedBackend single_backend(std::move(single_topology));
  auto single = single_backend.MakeQuerySource();

  ShardedCorpusConfig config;
  config.num_shards = 4;
  config.exhaustive_eval = true;
  auto split = SplitCorpus(*full, config);
  TEXTJOIN_CHECK(split.ok(), "%s", split.status().ToString().c_str());
  for (size_t s = 0; s < split->topology.shards.size(); ++s) {
    split->topology.shards[s].replicas[0].decorator =
        SimulatedServer(split->engines[s]->num_documents());
  }
  ShardedBackend sharded_backend(split->topology);
  auto sharded = sharded_backend.MakeQuerySource();

  // Identity first: the scatter-gather merge restores the exact order.
  bool identical = true;
  for (int i = 0; i < kSearches; ++i) {
    TextQueryPtr probe = MakeProbe(i);
    auto a = single->Search(*probe);
    auto b = sharded->Search(*probe);
    TEXTJOIN_CHECK(a.ok() && b.ok(), "identity probe failed");
    if (*a != *b) identical = false;
  }

  const Measured at1 = MeasureSearches(*single);
  const Measured at4 = MeasureSearches(*sharded);
  const double speedup = at4.searches_per_sec / at1.searches_per_sec;
  std::printf("{\"bench\": \"shard_scaling\", \"shards\": 1, "
              "\"wall_ms\": %.1f, \"searches_per_sec\": %.1f}\n",
              at1.wall_ms, at1.searches_per_sec);
  std::printf("{\"bench\": \"shard_scaling\", \"shards\": 4, "
              "\"wall_ms\": %.1f, \"searches_per_sec\": %.1f, "
              "\"speedup\": %.2f, \"identical\": %s}\n",
              at4.wall_ms, at4.searches_per_sec, speedup,
              identical ? "true" : "false");

  // Failover pricing: the same N=4 topology with R=2, healthy versus one
  // dead replica that every broadcast must fail over past.
  ShardedCorpusConfig replicated;
  replicated.num_shards = 4;
  replicated.num_replicas = 2;
  replicated.exhaustive_eval = true;
  auto healthy_split = SplitCorpus(*full, replicated);
  TEXTJOIN_CHECK(healthy_split.ok(), "%s",
                 healthy_split.status().ToString().c_str());
  auto broken_split = SplitCorpus(*full, replicated);
  TEXTJOIN_CHECK(broken_split.ok(), "%s",
                 broken_split.status().ToString().c_str());
  for (auto* corpus : {&*healthy_split, &*broken_split}) {
    for (size_t s = 0; s < corpus->topology.shards.size(); ++s) {
      for (auto& replica : corpus->topology.shards[s].replicas) {
        replica.decorator =
            SimulatedServer(corpus->engines[s]->num_documents());
      }
    }
  }
  broken_split->topology.shards[1].replicas[0].decorator = DeadServer();
  ChainSpec chain;
  chain.resilience.emplace();
  chain.resilience->retry.max_attempts = 2;
  chain.resilience->enable_breaker = false;
  chain.resilience->sleeper = [](std::chrono::microseconds) {};
  ShardedBackend healthy_backend(healthy_split->topology, chain);
  ShardedBackend broken_backend(broken_split->topology, chain);
  auto healthy = healthy_backend.MakeQuerySource();
  auto broken = broken_backend.MakeQuerySource();
  const Measured healthy_run = MeasureSearches(*healthy);
  const Measured broken_run = MeasureSearches(*broken);
  const double overhead = broken_run.wall_ms / healthy_run.wall_ms;
  const bool failover_results_match =
      broken_run.result_docs == healthy_run.result_docs;
  std::printf("{\"bench\": \"shard_failover\", \"wall_ms_healthy\": %.1f, "
              "\"wall_ms_one_replica_dead\": %.1f, \"overhead\": %.2f, "
              "\"identical\": %s}\n",
              healthy_run.wall_ms, broken_run.wall_ms, overhead,
              failover_results_match ? "true" : "false");

  const bool pass = identical && failover_results_match && speedup >= 3.0 &&
                    overhead <= 1.5;
  std::printf("\nshape check (>=3x search throughput at N=4 vs N=1, "
              "<=1.5x failover overhead, byte-identical results): %s\n",
              pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace textjoin

int main() { return textjoin::Run(); }
