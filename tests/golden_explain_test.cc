#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "connector/corpus_writer.h"
#include "core/executor.h"
#include "sql/federation_service.h"
#include "text/live_corpus.h"
#include "workload/scenario.h"
#include "workload/sharded_corpus.h"

/// \file
/// The golden-explain regression wall (DESIGN.md §15). Every case pins one
/// (query shape x stats profile x join method) combination: the query runs
/// end-to-end through the FederationService with the method forced
/// (EnumeratorOptions::forced_method), and the stable EXPLAIN ANALYZE
/// render (RenderMode::kStable — wall-clock fields normalized out,
/// canonical ordering) is byte-compared against a checked-in file under
/// tests/goldens/. Optimizer or executor changes that alter plan choice,
/// cardinalities, stage structure, meter attribution or cache behavior
/// show up as reviewable text diffs — the wall the ROADMAP item 1
/// optimizer work lands against.
///
/// Regeneration: scripts/update_goldens.sh (the ONLY sanctioned path). It
/// reruns this binary with TEXTJOIN_UPDATE_GOLDENS=1, which rewrites the
/// files instead of diffing. The GoldenHygiene suite fails when a golden
/// file is orphaned (no generating case) or a case lacks its golden, so
/// the wall cannot rot silently.

namespace textjoin {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------------------
// Case registry — the single source of truth the runner, the hygiene suite
// and scripts/update_goldens.sh all derive from.

const char* MethodSlug(JoinMethodKind method) {
  switch (method) {
    case JoinMethodKind::kTS:
      return "ts";
    case JoinMethodKind::kRTP:
      return "rtp";
    case JoinMethodKind::kSJ:
      return "sj";
    case JoinMethodKind::kSJRTP:
      return "sjrtp";
    case JoinMethodKind::kPTS:
      return "pts";
    case JoinMethodKind::kPRTP:
      return "prtp";
  }
  return "unknown";
}

struct GoldenCase {
  std::string shape;    ///< Query-shape family (fixed SQL).
  std::string profile;  ///< Stats profile ("base" / "skew").
  JoinMethodKind method = JoinMethodKind::kTS;
  std::string sql;
  bool sharded = false;  ///< Run over a 2-shard topology ("| shard" lines).
  bool live = false;     ///< Run over a LiveCorpus ("| corpus" line).

  /// "semi__base__ts" — also the gtest parameter name.
  std::string Name() const {
    return shape + "__" + profile + "__" + MethodSlug(method);
  }
  std::string FileName() const { return Name() + ".txt"; }
};

/// "semi": selections + text-only output. left_columns_needed is false and
/// a selection is present, so every one of the six Section 3 methods
/// applies — the full-grid shape.
const char* const kSemiSql =
    "select corpus.docid from r, corpus "
    "where r.a in corpus.title and 'golden' in corpus.title";

/// "pair": two join predicates on one relation, selection, outer columns
/// in the output (SJ inapplicable — five methods).
const char* const kPairSql =
    "select r.a, r.b, corpus.docid from r, corpus "
    "where r.a in corpus.title and r.b in corpus.author "
    "and 'golden' in corpus.title";

/// "tworel": predicates from two relations, no selection (RTP and SJ
/// inapplicable — four methods), with a relational filter on the way.
const char* const kTworelSql =
    "select r.a, s.c from r, s, corpus "
    "where r.area = 'area_v1' and r.a in corpus.title "
    "and s.c in corpus.author";

std::vector<GoldenCase> AllGoldenCases() {
  struct ShapeDef {
    const char* shape;
    const char* sql;
    std::vector<JoinMethodKind> methods;
    bool sharded = false;
    bool live = false;
  };
  const std::vector<ShapeDef> shapes = {
      {"semi", kSemiSql,
       {JoinMethodKind::kTS, JoinMethodKind::kRTP, JoinMethodKind::kSJ,
        JoinMethodKind::kSJRTP, JoinMethodKind::kPTS, JoinMethodKind::kPRTP},
       false},
      {"pair", kPairSql,
       {JoinMethodKind::kTS, JoinMethodKind::kRTP, JoinMethodKind::kSJRTP,
        JoinMethodKind::kPTS, JoinMethodKind::kPRTP},
       false},
      {"tworel", kTworelSql,
       {JoinMethodKind::kTS, JoinMethodKind::kSJRTP, JoinMethodKind::kPTS,
        JoinMethodKind::kPRTP},
       false},
      // The sharded shape pins the "| shard" attribution lines (canonical
      // (shard, replica) order, per-replica meters) for the broadcast-heavy
      // method.
      {"shard", kSemiSql, {JoinMethodKind::kTS}, true},
      // The live shape pins the "| corpus" pin line (epoch, delta_docs,
      // visible docs) for a mutable corpus with a FIXED post-seed write
      // history (DESIGN.md §16): every frozen-corpus golden above must
      // stay byte-identical — the line only renders when the corpus is
      // mutable.
      {"live", kSemiSql, {JoinMethodKind::kTS, JoinMethodKind::kPRTP},
       false, true},
  };
  std::vector<GoldenCase> cases;
  for (const char* profile : {"base", "skew"}) {
    for (const ShapeDef& def : shapes) {
      for (JoinMethodKind method : def.methods) {
        cases.push_back(
            {def.shape, profile, method, def.sql, def.sharded, def.live});
      }
    }
  }
  return cases;
}

// ---------------------------------------------------------------------------
// Stats profiles: two scenario parameterizations far enough apart that the
// cost model ranks methods differently (the goldens pin BOTH rankings'
// plans, not just one lucky regime).

ScenarioConfig BaseProfile() {
  ScenarioConfig config;
  config.relations = {{"r", 40, {{"area", 4}}}, {"s", 25, {}}};
  config.predicates = {
      {"r", "a", "title", 12, 0.5, 3.0},
      {"r", "b", "author", 16, 0.4, 2.0},
      {"s", "c", "author", 10, 0.5, 2.0},
  };
  config.selections = {{"golden", "title", 25}};
  config.num_documents = 400;
  config.max_search_terms = 70;
  config.text_alias = "corpus";
  config.seed = 4242;
  return config;
}

ScenarioConfig SkewProfile() {
  ScenarioConfig config;
  config.relations = {{"r", 80, {{"area", 4}}}, {"s", 40, {}}};
  config.predicates = {
      {"r", "a", "title", 30, 0.2, 12.0},  // fat, unselective postings
      {"r", "b", "author", 40, 0.3, 1.0},
      {"s", "c", "author", 12, 0.6, 6.0},
  };
  config.selections = {{"golden", "title", 8}};  // highly selective
  config.num_documents = 900;
  config.max_search_terms = 70;
  config.text_alias = "corpus";
  config.seed = 977;
  return config;
}

/// One profile's corpus + catalog, built once per process, plus a 2-shard
/// split of the same corpus for the sharded shape and a live twin (same
/// documents seeded through a CorpusWriter, then a fixed four-write
/// history, no merge worker) for the live shape. The live pin is frozen
/// after construction, so renders are byte-stable across services and
/// parallelism like every other case.
struct ProfileEnv {
  Scenario scenario;
  ShardedCorpus sharded;
  std::unique_ptr<LiveCorpus> live;
  EpochClock clock;
  std::unique_ptr<CorpusWriter> writer;
  BackendTopology live_topology;
};

/// The deterministic post-seed write history behind the live goldens:
/// one matching insert, one non-matching insert, one update that REMOVES
/// a previously matching document from the selection, one delete. Epochs
/// 1..4; delta_docs counts exactly these (the seed chunk is merged).
void ApplyLiveHistory(ProfileEnv& env) {
  env.live->MergePass();
  Document add;
  add.docid = "live-added";
  add.fields["title"] = {"golden live addition"};
  auto w = env.writer->Insert(std::move(add));
  TEXTJOIN_CHECK(w.ok(), "%s", w.status().ToString().c_str());
  Document noise;
  noise.docid = "live-noise";
  noise.fields["title"] = {"unrelated churn entry"};
  w = env.writer->Insert(std::move(noise));
  TEXTJOIN_CHECK(w.ok(), "%s", w.status().ToString().c_str());
  const auto& docs = env.scenario.engine->documents();
  TEXTJOIN_CHECK(docs.size() >= 2, "scenario too small for live history");
  Document retitled;
  retitled.docid = docs[0].docid;
  retitled.fields["title"] = {"retitled away from the selection"};
  w = env.writer->Update(std::move(retitled));
  TEXTJOIN_CHECK(w.ok(), "%s", w.status().ToString().c_str());
  w = env.writer->Delete(docs[1].docid);
  TEXTJOIN_CHECK(w.ok(), "%s", w.status().ToString().c_str());
}

ProfileEnv& EnvFor(const std::string& profile) {
  // unique_ptr values: the writer holds the address of env->clock, so the
  // env needs a stable heap home.
  static auto* envs =
      new std::map<std::string, std::unique_ptr<ProfileEnv>>();
  auto it = envs->find(profile);
  if (it == envs->end()) {
    auto built =
        BuildScenario(profile == "base" ? BaseProfile() : SkewProfile());
    TEXTJOIN_CHECK(built.ok(), "%s", built.status().ToString().c_str());
    auto env = std::make_unique<ProfileEnv>();
    env->scenario = std::move(*built);
    ShardedCorpusConfig shard_config;
    shard_config.num_shards = 2;
    auto split = SplitCorpus(*env->scenario.engine, shard_config);
    TEXTJOIN_CHECK(split.ok(), "%s", split.status().ToString().c_str());
    env->sharded = std::move(*split);
    env->live = std::make_unique<LiveCorpus>();
    env->writer = std::make_unique<CorpusWriter>(
        std::vector<std::vector<LiveCorpus*>>{{env->live.get()}}, &env->clock,
        nullptr);
    for (const Document& doc : env->scenario.engine->documents()) {
      auto seeded = env->writer->Seed(doc);
      TEXTJOIN_CHECK(seeded.ok(), "%s", seeded.ToString().c_str());
    }
    env->live_topology.shards.push_back({{{env->live.get(), nullptr}}});
    env->live_topology.partitioner = env->writer->PartitionFn();
    env->live_topology.global_ordinal = env->writer->OrdinalFn();
    ApplyLiveHistory(*env);
    it = envs->emplace(profile, std::move(env)).first;
  }
  return *it->second;
}

// ---------------------------------------------------------------------------
// Runner

fs::path GoldenDir() { return fs::path(TEXTJOIN_GOLDEN_DIR); }

bool UpdateMode() {
  const char* env = std::getenv("TEXTJOIN_UPDATE_GOLDENS");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// Runs the case end-to-end at the given parallelism (fresh service and
/// fresh cache, so cache traffic starts cold every time) and returns the
/// stable EXPLAIN ANALYZE render.
std::string RenderCase(const GoldenCase& c, int parallelism) {
  ProfileEnv& env = EnvFor(c.profile);
  FederationService::Options options;
  options.text = env.scenario.text;
  options.parallelism = parallelism;
  options.enumerator.forced_method = c.method;
  // A (cold) cache makes the "| cache" lines part of the golden surface:
  // miss/insert accounting must stay deterministic too.
  options.chain.cache = CacheOptions{};
  if (c.sharded) options.topology = env.sharded.topology;
  if (c.live) {
    // Live mode reads only a shared cache. The write history finished
    // before this service exists, so a fresh one starts as cold as a
    // private one would.
    options.chain.cache.reset();
    options.shared_cache = std::make_shared<TextCache>();
    options.topology = env.live_topology;
    options.live.emplace();
    options.live->clock = &env.clock;
  }
  FederationService service(env.scenario.catalog.get(),
                            c.live ? nullptr : env.scenario.engine.get(),
                            options);
  auto outcome = service.Run(c.sql);
  TEXTJOIN_CHECK(outcome.ok(), "%s: %s", c.Name().c_str(),
                 outcome.status().ToString().c_str());
  return ExplainAnalyze(*outcome, RenderMode::kStable);
}

std::string ReadFile(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class GoldenExplainTest : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenExplainTest, StableRenderMatchesGolden) {
  const GoldenCase& c = GetParam();
  // Byte-stability across parallelism AND repeated runs is a precondition
  // of the wall: three independent services, three renders, one string.
  const std::string render = RenderCase(c, 1);
  EXPECT_EQ(render, RenderCase(c, 4))
      << c.Name() << ": stable render differs between parallelism 1 and 4";
  EXPECT_EQ(render, RenderCase(c, 8))
      << c.Name() << ": stable render differs between parallelism 1 and 8";
  const fs::path path = GoldenDir() / c.FileName();
  if (UpdateMode()) {
    fs::create_directories(GoldenDir());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << render;
    ASSERT_TRUE(out.good()) << "failed writing " << path;
    return;
  }
  ASSERT_TRUE(fs::exists(path))
      << "missing golden file " << path
      << " — run scripts/update_goldens.sh and review the diff";
  EXPECT_EQ(ReadFile(path), render)
      << c.Name() << ": EXPLAIN ANALYZE drifted from its golden (" << path
      << "). If the change is intended, regenerate with "
         "scripts/update_goldens.sh and commit the diff.";
}

INSTANTIATE_TEST_SUITE_P(
    Wall, GoldenExplainTest, ::testing::ValuesIn(AllGoldenCases()),
    [](const ::testing::TestParamInfo<GoldenCase>& info) {
      return info.param.Name();
    });

// ---------------------------------------------------------------------------
// Hygiene: the wall cannot rot. Orphaned golden files (no generating case)
// and cases without goldens both fail; so does a registry that stops
// covering the full method grid.

TEST(GoldenHygiene, DirectoryMatchesRegistry) {
  if (UpdateMode()) GTEST_SKIP() << "regenerating; hygiene checked on rerun";
  std::set<std::string> expected;
  for (const GoldenCase& c : AllGoldenCases()) expected.insert(c.FileName());
  ASSERT_TRUE(fs::exists(GoldenDir()))
      << GoldenDir() << " missing — run scripts/update_goldens.sh";
  std::set<std::string> actual;
  for (const auto& entry : fs::directory_iterator(GoldenDir())) {
    if (!entry.is_regular_file()) continue;
    if (entry.path().extension() != ".txt") continue;  // README etc.
    actual.insert(entry.path().filename().string());
  }
  for (const std::string& name : actual) {
    EXPECT_TRUE(expected.count(name) != 0)
        << "orphaned golden " << name
        << ": no case generates it — delete it (or restore its case)";
  }
  for (const std::string& name : expected) {
    EXPECT_TRUE(actual.count(name) != 0)
        << "case " << name
        << " has no golden — run scripts/update_goldens.sh";
  }
}

TEST(GoldenHygiene, RegistryCoversTheMethodGrid) {
  const std::vector<GoldenCase> cases = AllGoldenCases();
  // The acceptance floor: >= 30 goldens, all six methods x both profiles
  // (plus the sharded and live-corpus shapes).
  EXPECT_GE(cases.size(), 30u);
  std::set<std::pair<std::string, std::string>> method_profile;
  for (const GoldenCase& c : cases) {
    method_profile.emplace(MethodSlug(c.method), c.profile);
  }
  for (const char* slug : {"ts", "rtp", "sj", "sjrtp", "pts", "prtp"}) {
    for (const char* profile : {"base", "skew"}) {
      EXPECT_TRUE(method_profile.count({slug, profile}) != 0)
          << "method " << slug << " lost coverage in profile " << profile;
    }
  }
  // Names must be unique — they double as file names and gtest ids.
  std::set<std::string> names;
  for (const GoldenCase& c : cases) {
    EXPECT_TRUE(names.insert(c.Name()).second)
        << "duplicate golden case " << c.Name();
  }
}

}  // namespace
}  // namespace textjoin
