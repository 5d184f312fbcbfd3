// The repository benchmark: drives FederationService::Run under one of
// three workloads, checks every result against a reference, and prints
// the end-to-end metrics (untraced binary) or the per-layer metrics
// (traced binary) as one JSON line. See perfbench/README.md.
//
//   perfbench --workload serve_hot|paper_cold|live_churn --seed N
//             --seconds S [--trace-out FILE]

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "connector/corpus_writer.h"
#include "core/admission.h"
#include "core/enumerator.h"
#include "core/pipeline.h"
#include "core/statistics.h"
#include "harness.h"
#include "sql/federation_service.h"
#include "sql/parser.h"
#include "text/live_corpus.h"
#include "tracing.h"
#include "workload/paper_queries.h"
#include "workload/university.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace textjoin;
using Clock = std::chrono::steady_clock;

constexpr size_t kStages =
    static_cast<size_t>(pipeline::StageKind::kAssemble) + 1;
/// The plan-probe window times Explain on every this-many-th query per
/// client.
constexpr uint64_t kExplainEvery = 16;
/// Draws replayed serially for the standalone layer timings.
constexpr int kStandaloneDraws = 200;
/// live_churn: open-loop write rate and the churn docid window.
constexpr double kWriteRate = 500.0;
constexpr size_t kChurnSlots = 512;
/// Timings are medians over sub-windows of about this length.
constexpr double kSubWindowSeconds = 2.0;
/// A query's latency floor is this percentile of its own latencies.
constexpr double kFloorPercentile = 1.0;

enum class Workload { kServeHot, kPaperCold, kLiveChurn };

struct Args {
  Workload workload = Workload::kServeHot;
  uint64_t seed = 1;
  double seconds = 10.0;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  if (argc % 2 != 1) return false;  // Flags come in --name value pairs.
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      have_workload = true;
      if (value == "serve_hot") {
        args->workload = Workload::kServeHot;
      } else if (value == "paper_cold") {
        args->workload = Workload::kPaperCold;
      } else if (value == "live_churn") {
        args->workload = Workload::kLiveChurn;
      } else {
        return false;
      }
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return have_workload && args->seconds > 0.0;
}

/// Traced-run plumbing shared by every service of the run. Exists only in
/// traced runs; its address is what the installed wrappers record into.
struct Tracer {
  SpanLog log;
  ConnectorCounters connector;
  std::vector<std::unique_ptr<TracingCorpus>> corpora;

  const SearchableCorpus* Wrap(const SearchableCorpus* corpus) {
    corpora.push_back(std::make_unique<TracingCorpus>(corpus, &log));
    return corpora.back().get();
  }
  std::function<std::unique_ptr<TextSource>(TextSource*)> Decorator() {
    return [this](TextSource* inner) -> std::unique_ptr<TextSource> {
      return std::make_unique<TracingSource>(inner, &log, &connector);
    };
  }
};

/// One service and the data it runs over; the standalone layer timings
/// call into the same catalog and (unwrapped) corpus.
struct Target {
  const Catalog* catalog = nullptr;
  TextRelationDecl text;
  const SearchableCorpus* corpus = nullptr;
  std::unique_ptr<FederationService> service;
};

struct QuerySpec {
  std::string sql;
  size_t target = 0;
  Reference reference;
};

/// Everything one set-up builds. Declaration order is teardown order in
/// reverse: services go first, then the writer, corpora and catalogs they
/// point into.
struct Env {
  std::optional<UniversityWorkload> university;
  std::vector<PaperScenario> scenarios;
  std::unique_ptr<EpochClock> clock;
  std::unique_ptr<LiveCorpus> live;
  std::shared_ptr<TextCache> shared_cache;
  std::unique_ptr<CorpusWriter> writer;
  std::vector<QuerySpec> queries;
  QueryPicker::Mode pick_mode = QueryPicker::Mode::kZipf;
  int clients = 1;
  std::vector<Target> targets;
};

Status Fail(const std::string& what, const Status& status) {
  return Status::Internal(what + ": " + status.ToString());
}

/// Runs every query `rounds` times on its target and checks the results.
Status WarmUp(Env& env, int rounds) {
  for (int round = 0; round < rounds; ++round) {
    for (const QuerySpec& spec : env.queries) {
      auto outcome = env.targets[spec.target].service->Run(spec.sql);
      if (!outcome.ok()) return Fail("warm-up " + spec.sql, outcome.status());
      if (!MatchesReference(spec.reference, FingerprintRows(outcome->rows),
                            outcome->meter_delta)) {
        return Status::Internal("warm-up result differs from reference: " +
                                spec.sql);
      }
    }
  }
  return Status::OK();
}

/// serve_hot and live_churn: the university corpus, one shared service.
Status SetupUniversity(Env& env, bool live, Tracer* tracer) {
  auto built = BuildUniversity(UniversityConfig{});
  if (!built.ok()) return Fail("BuildUniversity", built.status());
  env.university.emplace(std::move(*built));
  UniversityWorkload& uni = *env.university;

  // References from a fresh serial, cache-off service over the frozen
  // corpus. live_churn's writes never match a relation row, so the frozen
  // rows stay the right answer at every epoch.
  {
    FederationService::Options options;
    options.text = uni.text;
    FederationService reference(uni.catalog.get(), uni.engine.get(), options);
    for (const std::string& sql : UniversitySql()) {
      auto outcome = reference.Run(sql);
      if (!outcome.ok()) return Fail("reference " + sql, outcome.status());
      env.queries.push_back(
          {sql, 0, {FingerprintRows(outcome->rows), {}, false}});
    }
  }

  FederationService::Options options;
  options.text = uni.text;
  options.chain.cache = CacheOptions{};
  options.admission_control = AdmissionOptions{};
  options.parallelism = 1;
  Target target;
  target.catalog = uni.catalog.get();
  target.text = uni.text;
  if (!live) {
    env.pick_mode = QueryPicker::Mode::kZipf;
    env.clients = 3;
    target.corpus = uni.engine.get();
    if (tracer != nullptr) {
      options.topology = BackendTopology::Single(tracer->Wrap(target.corpus));
    }
  } else {
    env.pick_mode = QueryPicker::Mode::kUniform;
    env.clients = 2;
    env.clock = std::make_unique<EpochClock>();
    env.live = std::make_unique<LiveCorpus>();
    env.shared_cache = std::make_shared<TextCache>();
    env.writer = std::make_unique<CorpusWriter>(
        std::vector<std::vector<LiveCorpus*>>{{env.live.get()}},
        env.clock.get(), env.shared_cache);
    for (const Document& doc : uni.engine->documents()) {
      Status seeded = env.writer->Seed(doc);
      if (!seeded.ok()) return Fail("seed live corpus", seeded);
    }
    env.live->MergePass();
    target.corpus = env.live.get();
    const SearchableCorpus* served =
        tracer != nullptr ? tracer->Wrap(target.corpus) : target.corpus;
    options.topology.shards.push_back({{{served, nullptr}}});
    options.topology.partitioner = env.writer->PartitionFn();
    options.topology.global_ordinal = env.writer->OrdinalFn();
    options.shared_cache = env.shared_cache;
    options.live.emplace();
    options.live->clock = env.clock.get();
    options.live->merge_corpora = env.writer->AllCorpora();
    options.live->start_merge_worker = true;
  }
  if (tracer != nullptr) {
    options.execution_source_decorator = tracer->Decorator();
  }
  target.service = std::make_unique<FederationService>(
      target.catalog, live ? nullptr : target.corpus, std::move(options));
  env.targets.push_back(std::move(target));
  return WarmUp(env, 2);
}

/// paper_cold: Q1-Q5, one service per scenario, sampled statistics.
Status SetupPaperCold(Env& env, Tracer* tracer) {
  env.pick_mode = QueryPicker::Mode::kCycle;
  // Three clients: one client's throughput followed the shared host's
  // fast and slow states alone (qps spread 0.28 across seeds, 0.10 with
  // three).
  env.clients = 3;
  Result<PaperScenario> built[] = {BuildQ1(Q1Config{}), BuildQ2(Q2Config{}),
                                   BuildQ3(Q3Config{}), BuildQ4(Q4Config{}),
                                   BuildQ5(Q5Config{})};
  for (Result<PaperScenario>& scenario : built) {
    if (!scenario.ok()) return Fail("paper scenario", scenario.status());
    env.scenarios.push_back(std::move(*scenario));
  }
  for (size_t i = 0; i < env.scenarios.size(); ++i) {
    const Scenario& scenario = env.scenarios[i].scenario;
    const std::string sql = env.scenarios[i].query.ToString();
    FederationService::Options options;
    options.text = scenario.text;
    options.oracle_stats = false;  // The paper's sampled statistics.
    {
      FederationService reference(scenario.catalog.get(),
                                  scenario.engine.get(), options);
      auto outcome = reference.Run(sql);
      if (!outcome.ok()) return Fail("reference " + sql, outcome.status());
      env.queries.push_back(
          {sql, i,
           {FingerprintRows(outcome->rows), outcome->meter_delta, true}});
    }
    // Execution stays serial (the default parallelism of 1). With 4-way
    // parallelism on a shared 4-vCPU host the slowest parallel part set
    // each query's time: across 10 seeds p50/p90 spread by 0.19/0.26 of
    // their median, and serial runs were also faster.
    Target target;
    target.catalog = scenario.catalog.get();
    target.text = scenario.text;
    target.corpus = scenario.engine.get();
    if (tracer != nullptr) {
      options.topology = BackendTopology::Single(tracer->Wrap(target.corpus));
      options.execution_source_decorator = tracer->Decorator();
    }
    target.service = std::make_unique<FederationService>(
        target.catalog, target.corpus, std::move(options));
    env.targets.push_back(std::move(target));
  }
  return WarmUp(env, 3);
}

/// Builds the workload's corpora, services and references and warms the
/// services up. The corpora are the generators' fixed configurations;
/// the workload seed drives only the request streams, so runs with
/// different seeds measure the same system under different draws.
Status Setup(Env& env, Workload workload, Tracer* tracer) {
  switch (workload) {
    case Workload::kServeHot:
      return SetupUniversity(env, /*live=*/false, tracer);
    case Workload::kLiveChurn:
      return SetupUniversity(env, /*live=*/true, tracer);
    case Workload::kPaperCold:
      return SetupPaperCold(env, tracer);
  }
  return Status::Internal("unknown workload");
}

/// One closed-loop client's account of a window.
struct ClientResult {
  std::vector<Sample> samples;  ///< Completed (ok) queries.
  uint64_t attempted = 0;
  uint64_t failed = 0;      ///< Run() returned an error.
  uint64_t mismatched = 0;  ///< Rows (or meter) differ from the reference.
  double sim_seconds = 0.0;
  // Traced windows only.
  uint64_t admission_queued = 0;
  uint64_t postings = 0;
  std::array<double, kStages> stage_wall{};
  std::array<uint64_t, kStages> stage_units{};
  std::string first_error;
};

struct WindowResult {
  int64_t start_ns = 0;
  double wall_seconds = 0.0;
  std::vector<ClientResult> clients;

  uint64_t Completed() const {
    uint64_t n = 0;
    for (const ClientResult& c : clients) n += c.samples.size();
    return n;
  }
  double Qps() const {
    return static_cast<double>(Completed()) / wall_seconds;
  }
};

/// What a window does besides running queries.
enum class Probe {
  kNone,     ///< Untraced.
  kTrace,    ///< Spans, stage profiles and counters.
  kExplain,  ///< kTrace plus a timed Explain every kExplainEvery queries.
};

void RunClient(Env& env, QueryPicker& picker, uint64_t client,
               Clock::time_point end, Probe probe, Tracer* tracer,
               ClientResult& out) {
  uint64_t query_id = (client + 1) << 40;
  while (Clock::now() < end) {
    const size_t index = picker.Next();
    const QuerySpec& spec = env.queries[index];
    FederationService& service = *env.targets[spec.target].service;
    if (probe != Probe::kNone) SetCurrentQuery(++query_id);
    const int64_t start = NowNs();
    auto outcome = service.Run(spec.sql);
    const int64_t stop = NowNs();
    ++out.attempted;
    if (!outcome.ok()) {
      if (out.failed++ == 0) out.first_error = outcome.status().ToString();
      continue;
    }
    out.samples.push_back(
        {stop, static_cast<double>(stop - start) * 1e-3, index});
    out.sim_seconds += outcome->meter_delta.SimulatedSeconds(CostParams{});
    if (!MatchesReference(spec.reference, FingerprintRows(outcome->rows),
                          outcome->meter_delta)) {
      if (out.mismatched++ == 0) out.first_error = "mismatch: " + spec.sql;
    }
    if (probe == Probe::kNone) continue;
    tracer->log.Record(Layer::kQuery, start, stop);
    out.postings += outcome->meter_delta.postings_processed;
    if (outcome->overload.admission_wait_seconds > 0.0) ++out.admission_queued;
    for (const auto& [node, profile] : outcome->profile.nodes) {
      for (const pipeline::StageStats& stage : profile.stages.stages) {
        const size_t k = static_cast<size_t>(stage.desc.kind);
        out.stage_wall[k] += stage.wall_seconds;
        out.stage_units[k] += stage.units;
      }
    }
    if (probe == Probe::kExplain && out.attempted % kExplainEvery == 0) {
      const int64_t plan_start = NowNs();
      auto explained = service.Explain(spec.sql);
      const int64_t plan_stop = NowNs();
      if (!explained.ok() && out.failed++ == 0) {
        out.first_error = explained.status().ToString();
      }
      tracer->log.Record(Layer::kPlan, plan_start, plan_stop);
    }
  }
  if (probe != Probe::kNone) SetCurrentQuery(0);
}

/// Runs every client closed-loop from `start` for `seconds`.
WindowResult RunWindow(Env& env, std::vector<QueryPicker>& pickers,
                       Clock::time_point start, double seconds, Probe probe,
                       Tracer* tracer) {
  WindowResult window;
  window.clients.resize(pickers.size());
  const auto end =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::this_thread::sleep_until(start);
  window.start_ns = NowNs();
  std::vector<std::thread> threads;
  for (size_t c = 0; c < pickers.size(); ++c) {
    threads.emplace_back([&, c] {
      RunClient(env, pickers[c], c, end, probe, tracer, window.clients[c]);
    });
  }
  for (std::thread& t : threads) t.join();
  window.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  return window;
}

/// The open-loop writer of live_churn: each write is timed from its
/// scheduled send time, so a stall shows up in every write behind it.
struct WriterResult {
  std::vector<double> latency_us;
  double max_lag_us = 0.0;  ///< How late the generator started a write.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_error;
};

void RunWriter(CorpusWriter& writer, const std::vector<WriteOp>& schedule,
               Clock::time_point start, uint64_t seed, WriterResult& out) {
  static const char* const kTitles[] = {"caching", "replication",
                                        "text retrieval", "belief update"};
  for (size_t i = 0; i < schedule.size(); ++i) {
    const WriteOp& op = schedule[i];
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(op.at_seconds));
    std::this_thread::sleep_until(due);
    const auto begin = Clock::now();
    const std::string docid = "churn-" + std::to_string(op.slot);
    Document doc;
    doc.docid = docid;
    // Titles share the queries' topic words, so writes invalidate cached
    // searches; authors ("x..." names) match no relation row, so every
    // read's rows stay the frozen reference.
    doc.fields["title"] = {std::string(kTitles[Mix(seed, i) % 4]) +
                           " churn " + std::to_string(i)};
    doc.fields["author"] = {"Xochurn" + std::to_string(op.slot % 7)};
    doc.fields["year"] = {"1994"};
    const auto apply = [&]() -> Result<uint64_t> {
      switch (op.kind) {
        case WriteOp::Kind::kInsert:
          return writer.Insert(std::move(doc));
        case WriteOp::Kind::kUpdate:
          return writer.Update(std::move(doc));
        case WriteOp::Kind::kDelete:
          break;
      }
      return writer.Delete(docid);
    };
    const Result<uint64_t> written = apply();
    const auto done = Clock::now();
    ++out.attempted;
    if (!written.ok()) {
      if (out.failed++ == 0) out.first_error = written.status().ToString();
      continue;
    }
    out.latency_us.push_back(
        std::chrono::duration<double, std::micro>(done - due).count());
    out.max_lag_us = std::max(
        out.max_lag_us,
        std::chrono::duration<double, std::micro>(begin - due).count());
  }
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void PrintLatency(const char* what, const LatencySummary& s) {
  std::printf("# %s: n=%zu p50=%.1fus p99=%.1fus p%g=%.1fus\n", what,
              s.samples, s.p50, s.p99, s.tail_pct, s.tail);
}

/// Standalone timings of single layers, replayed serially after the
/// measured windows on draws of the workload's own query mix.
struct Standalone {
  double parse_us = 0.0;
  double stats_us = 0.0;
  double enumerate_us = 0.0;
  double snapshot_us = 0.0;
  double admission_us = 0.0;
  double allocs_per_query = 0.0;
  std::string error;
};

double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

Standalone TimeLayers(Env& env, uint64_t seed) {
  Standalone out;
  QueryPicker picker(env.pick_mode, env.queries.size(), Mix(seed, 999));
  AdmissionController admission{AdmissionOptions{}};
  uint64_t allocs = 0;
  for (int i = 0; i < kStandaloneDraws; ++i) {
    const QuerySpec& spec = env.queries[picker.Next()];
    Target& target = env.targets[spec.target];
    const uint64_t epoch =
        env.clock != nullptr ? env.clock->published() : kUnpinnedEpoch;

    auto t0 = Clock::now();
    auto snapshot = target.corpus->SnapshotAt(epoch);
    auto t1 = Clock::now();
    out.snapshot_us += Micros(t0, t1);
    const SearchableCorpus* pinned =
        snapshot != nullptr ? snapshot.get() : target.corpus;

    t0 = Clock::now();
    auto query = ParseQuery(spec.sql, target.text);
    t1 = Clock::now();
    if (!query.ok()) {
      out.error = query.status().ToString();
      return out;
    }
    out.parse_us += Micros(t0, t1);

    StatsRegistry registry;
    t0 = Clock::now();
    Status stats =
        ComputeExactStats(*query, *target.catalog, *pinned, registry);
    t1 = Clock::now();
    if (!stats.ok()) {
      out.error = stats.ToString();
      return out;
    }
    out.stats_us += Micros(t0, t1);

    Enumerator enumerator(target.catalog, &registry, pinned->num_documents(),
                          pinned->max_search_terms(), EnumeratorOptions{});
    t0 = Clock::now();
    auto plan = enumerator.Optimize(*query);
    t1 = Clock::now();
    if (!plan.ok()) {
      out.error = plan.status().ToString();
      return out;
    }
    out.enumerate_us += Micros(t0, t1);

    t0 = Clock::now();
    {
      auto ticket = admission.Admit((*plan)->est_cost,
                                    Clock::time_point::max(), 0);
      if (!ticket.ok()) {
        out.error = ticket.status().ToString();
        return out;
      }
    }
    t1 = Clock::now();
    out.admission_us += Micros(t0, t1);

    const uint64_t before = g_alloc_counter->load(std::memory_order_relaxed);
    auto outcome = target.service->Run(spec.sql);
    allocs += g_alloc_counter->load(std::memory_order_relaxed) - before;
    if (!outcome.ok()) {
      out.error = outcome.status().ToString();
      return out;
    }
  }
  const double n = kStandaloneDraws;
  out.parse_us /= n;
  out.stats_us /= n;
  out.enumerate_us /= n;
  out.snapshot_us /= n;
  out.admission_us /= n;
  out.allocs_per_query = static_cast<double>(allocs) / n;
  return out;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload serve_hot|paper_cold|live_churn "
                 "--seed N --seconds S [--trace-out FILE]\n",
                 argv[0]);
    return 2;
  }
  // The traced binary links the counting allocator; that is what makes a
  // run traced.
  const bool traced = g_alloc_counter != nullptr;
  std::unique_ptr<Tracer> tracer;
  if (traced) {
    tracer = std::make_unique<Tracer>();
    tracer->log.set_enabled(true);  // Set-up traffic counts per call.
  }

  // Replaces `env` with a fresh set-up and times it.
  std::vector<double> setup_seconds;
  std::unique_ptr<Env> env;
  const auto set_up = [&]() -> bool {
    env.reset();
    const auto t0 = Clock::now();
    env = std::make_unique<Env>();
    Status status = Setup(*env, args.workload, tracer.get());
    setup_seconds.push_back(
        std::chrono::duration<double>(Clock::now() - t0).count());
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
    }
    return status.ok();
  };
  // setup_s is the median of nine set-ups: five before the measured window
  // (the last one is measured) and four after it, so the median spans the
  // whole run rather than its first seconds, when outside load may differ.
  // Traced runs do not report setup_s and set up once.
  const int setups_before = traced ? 1 : 5;
  constexpr int kSetupsAfter = 4;
  for (int i = 0; i < setups_before; ++i) {
    if (!set_up()) return 1;
  }

  std::vector<QueryPicker> pickers;
  for (int c = 0; c < env->clients; ++c) {
    pickers.emplace_back(env->pick_mode, env->queries.size(),
                         Mix(args.seed, 100 + static_cast<uint64_t>(c)));
  }

  // A traced run splits its time in four windows: untraced, traced (the
  // per-layer window), untraced again — the two untraced windows bracket
  // the traced one so drift cancels out of the overhead — and traced with
  // Explain probes, which contend for the planner lock and so stay out of
  // the others.
  const double window_seconds = traced ? args.seconds / 4 : args.seconds;
  const auto start = Clock::now() + std::chrono::milliseconds(5);
  WriterResult writes;
  std::thread writer;
  if (env->writer != nullptr) {
    const std::vector<WriteOp> schedule = MakeWriteSchedule(
        Mix(args.seed, 200), kWriteRate, args.seconds, kChurnSlots);
    writer = std::thread([&env, schedule, start, &args, &writes] {
      RunWriter(*env->writer, schedule, start, Mix(args.seed, 201), writes);
    });
  }
  WindowResult untraced_window;
  WindowResult untraced_after;
  WindowResult explain_window;
  TextCache* cache = env->targets[0].service->cache();
  CacheStats cache_before;
  MergeStats merge_before;
  uint64_t searches_before = 0;
  uint64_t fetches_before = 0;
  if (traced) {
    tracer->log.set_enabled(false);
    untraced_window = RunWindow(*env, pickers, start, window_seconds,
                                Probe::kNone, tracer.get());
    tracer->log.set_enabled(true);
    if (cache != nullptr) cache_before = cache->Stats();
    if (env->live != nullptr) merge_before = env->live->merge_stats();
    searches_before = tracer->connector.searches.load();
    fetches_before = tracer->connector.fetches.load();
  }
  const WindowResult window =
      RunWindow(*env, pickers, traced ? Clock::now() : start, window_seconds,
                traced ? Probe::kTrace : Probe::kNone, tracer.get());
  CacheStats cache_after;
  MergeStats merge_after;
  uint64_t searches_after = 0;
  uint64_t fetches_after = 0;
  if (traced) {
    if (cache != nullptr) cache_after = cache->Stats();
    if (env->live != nullptr) merge_after = env->live->merge_stats();
    searches_after = tracer->connector.searches.load();
    fetches_after = tracer->connector.fetches.load();
    tracer->log.set_enabled(false);
    untraced_after = RunWindow(*env, pickers, Clock::now(), window_seconds,
                               Probe::kNone, tracer.get());
    tracer->log.set_enabled(true);
    explain_window = RunWindow(*env, pickers, Clock::now(), window_seconds,
                               Probe::kExplain, tracer.get());
  }
  if (writer.joinable()) writer.join();

  // The correctness gate.
  uint64_t attempted = writes.attempted;
  uint64_t failed = writes.failed;
  uint64_t mismatched = 0;
  double sim_seconds = 0.0;
  std::vector<Sample> samples;
  std::string first_error = writes.first_error;
  for (const WindowResult* w :
       {&std::as_const(untraced_window), &window,
        &std::as_const(untraced_after), &std::as_const(explain_window)}) {
    for (const ClientResult& c : w->clients) {
      attempted += c.attempted;
      failed += c.failed;
      mismatched += c.mismatched;
      if (first_error.empty()) first_error = c.first_error;
    }
  }
  for (const ClientResult& c : window.clients) {
    sim_seconds += c.sim_seconds;
    samples.insert(samples.end(), c.samples.begin(), c.samples.end());
  }
  const uint64_t completed = window.Completed();
  const bool correct = failed == 0 && mismatched == 0;
  std::printf("# %s: attempted=%llu failed=%llu mismatched=%llu "
              "error_ratio=%.6f\n",
              correct ? "correct" : "INCORRECT",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(mismatched),
              static_cast<double>(failed + mismatched) /
                  static_cast<double>(std::max<uint64_t>(attempted, 1)));
  if (!first_error.empty()) {
    std::printf("# first error: %s\n", first_error.c_str());
  }
  std::vector<double> latency_us;
  for (const Sample& sample : samples) latency_us.push_back(sample.latency_us);
  const LatencySummary reads = Summarize(std::move(latency_us));
  PrintLatency("read latency", reads);
  const size_t bins = std::max<size_t>(
      1, static_cast<size_t>(window_seconds / kSubWindowSeconds));
  const WindowedSummary windowed = SummarizeWindows(
      samples, window.start_ns,
      static_cast<int64_t>(window_seconds / static_cast<double>(bins) * 1e9),
      bins);
  std::printf("# medians over %zu sub-windows (%zu samples, smallest bin "
              "%zu): qps=%.1f p50=%.1fus p90=%.1fus p99=%.1fus\n",
              windowed.windows, windowed.samples, windowed.min_bin_samples,
              windowed.qps, windowed.p50, windowed.p90, windowed.p99);
  std::printf("# sub-window qps:");
  for (double q : windowed.bin_qps) std::printf(" %.0f", q);
  std::printf("\n# sub-window p99 (us):");
  for (double q : windowed.bin_p99) std::printf(" %.0f", q);
  std::printf("\n");
  const FloorSummary floors =
      SummarizeFloors(samples, env->queries.size(), kFloorPercentile);
  std::printf("# latency floors (p%g of each query): p50=%.1fus p90=%.1fus\n",
              kFloorPercentile, floors.p50, floors.p90);
  if (env->queries.size() <= 8) {
    std::printf("# per-query floors (us):");
    for (double floor : floors.query_floor) std::printf(" %.0f", floor);
    std::printf("\n");
  }
  if (env->writer != nullptr) {
    PrintLatency("write latency (from scheduled send)",
                 Summarize(writes.latency_us));
    std::printf("# writer: %llu writes, max start lag %.1fus\n",
                static_cast<unsigned long long>(writes.attempted),
                writes.max_lag_us);
  }
  if (reads.tail_pct < 99.0) {
    std::fprintf(stderr,
                 "too few samples (%zu) for a p99 with 10 samples beyond\n",
                 reads.samples);
    return 1;
  }

  std::vector<Metric> metrics;
  if (!traced) {
    const double rss_mb = PeakRssMb();
    const LatencySummary write_latency = Summarize(writes.latency_us);
    const bool live = env->writer != nullptr;
    for (int i = 0; i < kSetupsAfter; ++i) {
      if (!set_up()) return 1;
    }
    std::printf("# set-up: %zu runs, median %.3fs\n", setup_seconds.size(),
                Median(setup_seconds));
    metrics = {
        {"setup_s", Median(setup_seconds), "s"},
        {"qps", windowed.qps, "1/s"},
        {"latency_floor_p50_us", floors.p50, "us"},
        {"latency_floor_p90_us", floors.p90, "us"},
        {"sim_cost_s_per_query",
         sim_seconds / static_cast<double>(completed), "s"},
        {"rss_mb", rss_mb, "MB"},
    };
    if (live) {
      metrics.push_back({"write_latency_p50_us", write_latency.p50, "us"});
      metrics.push_back({"write_latency_p99_us", write_latency.p99, "us"});
    }
  } else {
    const Standalone layers = TimeLayers(*env, args.seed);
    if (!layers.error.empty()) {
      std::fprintf(stderr, "standalone layer timing failed: %s\n",
                   layers.error.c_str());
      return 1;
    }
    const double queries = static_cast<double>(completed);
    const std::vector<SpanLog::LayerTotals> totals = tracer->log.Totals();
    const auto per_span_us = [&totals](Layer layer) {
      const SpanLog::LayerTotals& t = totals[static_cast<size_t>(layer)];
      return t.spans == 0 ? 0.0
                          : t.seconds * 1e6 / static_cast<double>(t.spans);
    };
    const auto ratio = [](uint64_t part, uint64_t whole) {
      return whole == 0 ? 0.0
                        : static_cast<double>(part) /
                              static_cast<double>(whole);
    };
    uint64_t queued = 0;
    uint64_t postings = 0;
    std::array<double, kStages> stage_wall{};
    std::array<uint64_t, kStages> stage_units{};
    for (const ClientResult& c : window.clients) {
      queued += c.admission_queued;
      postings += c.postings;
      for (size_t k = 0; k < kStages; ++k) {
        stage_wall[k] += c.stage_wall[k];
        stage_units[k] += c.stage_units[k];
      }
    }
    const ConnectorCounters& conn = tracer->connector;
    const uint64_t searches = conn.searches.load();
    const double untraced_qps =
        (untraced_window.Qps() + untraced_after.Qps()) / 2;
    metrics = {
        {"sql.parse_us", layers.parse_us, "us"},
        {"core.stats_us", layers.stats_us, "us"},
        {"core.enumerate_us", layers.enumerate_us, "us"},
        {"core.plan_us", per_span_us(Layer::kPlan), "us"},
        {"core.admission_us", layers.admission_us, "us"},
        {"core.admission_queued", static_cast<double>(queued), "count"},
        {"cache.search_hit_ratio",
         ratio(cache_after.search_hits - cache_before.search_hits,
               cache_after.search_hits - cache_before.search_hits +
                   cache_after.search_misses - cache_before.search_misses),
         "ratio"},
        {"cache.fetch_hit_ratio",
         ratio(cache_after.fetch_hits - cache_before.fetch_hits,
               cache_after.fetch_hits - cache_before.fetch_hits +
                   cache_after.fetch_misses - cache_before.fetch_misses),
         "ratio"},
        {"cache.coalesced_per_query",
         static_cast<double>(cache_after.coalesced - cache_before.coalesced) /
             queries,
         "count"},
        {"cache.evictions",
         static_cast<double>(cache_after.evictions - cache_before.evictions),
         "count"},
        {"cache.invalidations",
         static_cast<double>(cache_after.invalidations -
                             cache_before.invalidations +
                             cache_after.surgical_invalidations -
                             cache_before.surgical_invalidations),
         "count"},
    };
    for (size_t k = 0; k < kStages; ++k) {
      const std::string stage =
          pipeline::StageKindName(static_cast<pipeline::StageKind>(k));
      metrics.push_back({"pipeline." + stage + ".wall_us",
                         stage_wall[k] * 1e6 / queries, "us"});
      metrics.push_back({"pipeline." + stage + ".units",
                         static_cast<double>(stage_units[k]) / queries,
                         "count"});
    }
    const std::vector<Metric> rest = {
        {"connector.search_calls_per_query",
         static_cast<double>(searches_after - searches_before) / queries,
         "count"},
        {"connector.fetch_calls_per_query",
         static_cast<double>(fetches_after - fetches_before) / queries,
         "count"},
        {"connector.search_us", per_span_us(Layer::kConnectorSearch), "us"},
        {"connector.fetch_us", per_span_us(Layer::kConnectorFetch), "us"},
        {"connector.fail_query_ratio",
         ratio(conn.empty_searches.load(), searches), "ratio"},
        {"text.search_us", per_span_us(Layer::kTextSearch), "us"},
        {"text.fetch_us", per_span_us(Layer::kTextFetch), "us"},
        {"text.postings_per_query", static_cast<double>(postings) / queries,
         "count"},
        {"service.allocs_per_query", layers.allocs_per_query, "count"},
        {"service.run_us_traced", reads.p50, "us"},
        {"trace.overhead_pct",
         100.0 * (untraced_qps - window.Qps()) / untraced_qps, "%"},
    };
    metrics.insert(metrics.end(), rest.begin(), rest.end());
    if (env->live != nullptr) {
      metrics.push_back({"live.snapshot_us", layers.snapshot_us, "us"});
      metrics.push_back(
          {"live.merge_passes",
           static_cast<double>(merge_after.passes - merge_before.passes),
           "count"});
      metrics.push_back({"live.docs_folded",
                         static_cast<double>(merge_after.docs_folded -
                                             merge_before.docs_folded),
                         "count"});
    }
    if (!args.trace_out.empty() && !tracer->log.WriteTsv(args.trace_out)) {
      std::fprintf(stderr, "cannot write spans to %s\n",
                   args.trace_out.c_str());
      return 1;
    }
  }
  for (const Metric& m : metrics) {
    if (!ValidMetricName(m.name) || !std::isfinite(m.value)) {
      std::fprintf(stderr, "bad metric %s = %g\n", m.name.c_str(), m.value);
      return 1;
    }
  }
  // Services stop their merge workers and pools before the result line.
  env.reset();
  std::printf("%s\n", ResultJson(correct, attempted, failed + mismatched,
                                 metrics)
                          .c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
