#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/random.h"
#include "connector/remote_text_source.h"
#include "core/join_methods.h"
#include "tests/support/reference_postings.h"
#include "tests/test_util.h"
#include "text/storage.h"
#include "workload/scenario.h"

namespace textjoin {
namespace {

using textjoin::testing::MakeSmallEngine;

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

/// Little-endian raw bytes of `v`, the files' integer encoding.
template <typename T>
std::string Le(T v) {
  return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
}

/// A length-prefixed string, the files' string encoding.
std::string Str(const std::string& s) {
  return Le(static_cast<uint32_t>(s.size())) + s;
}

/// LEB128 varints, the index lists' integer encoding.
std::string Varints(std::initializer_list<uint64_t> values) {
  std::string out;
  for (uint64_t v : values) {
    while (v >= 0x80) {
      out.push_back(static_cast<char>((v & 0x7f) | 0x80));
      v >>= 7;
    }
    out.push_back(static_cast<char>(v));
  }
  return out;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fwrite(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
}

constexpr uint32_t kCorpusMagic = 0x544a4331;
constexpr uint32_t kIndexMagic = 0x544a4932;

/// A corpus-file header: magic, version 1, document count.
std::string CorpusHeader(uint64_t count) {
  return Le(kCorpusMagic) + Le(uint32_t{1}) + Le(count);
}

/// A whole index file holding one list, title/`token`, whose encoded
/// stream is `list` and whose directory entry claims `postings` postings.
std::string IndexWithOneList(const std::string& token, uint32_t postings,
                             const std::string& list) {
  const std::string field = "title";
  const uint64_t offset = 4 + 4 + 8 + 4 + field.size() + 4 + token.size() +
                          8 + 4 + 4;
  return Le(kIndexMagic) + Le(uint32_t{2}) + Le(uint64_t{1}) + Str(field) +
         Str(token) + Le(offset) + Le(static_cast<uint32_t>(list.size())) +
         Le(postings) + list;
}

TEST(CorpusFileTest, Roundtrip) {
  auto engine = MakeSmallEngine();
  const std::string path = TempPath("corpus_roundtrip.tjc");
  ASSERT_TRUE(WriteCorpusFile(*engine, path).ok());

  auto loaded = ReadCorpusFile(path, /*max_search_terms=*/33);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->num_documents(), engine->num_documents());
  EXPECT_EQ((*loaded)->max_search_terms(), 33u);
  // Documents identical, field by field.
  for (DocNum n = 0; n < engine->num_documents(); ++n) {
    const Document& a = engine->GetDocument(n);
    const Document& b = (*loaded)->GetDocument(n);
    EXPECT_EQ(a.docid, b.docid);
    EXPECT_EQ(a.fields, b.fields);
  }
  // The rebuilt index answers searches identically.
  auto q = ParseTextQuery("title='belief update' and author='radhika'");
  auto ra = engine->Search(**q);
  auto rb = (*loaded)->Search(**q);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->docs, rb->docs);
  std::remove(path.c_str());
}

TEST(CorpusFileTest, Errors) {
  EXPECT_EQ(ReadCorpusFile("/nonexistent/nope.tjc").status().code(),
            StatusCode::kNotFound);
  // Not a corpus file (wrong magic).
  const std::string path = TempPath("garbage.tjc");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("garbage bytes here, definitely not a corpus", f);
  std::fclose(f);
  EXPECT_EQ(ReadCorpusFile(path).status().code(),
            StatusCode::kInvalidArgument);
  // Counts read from the file are not trusted with an allocation: a header
  // claiming 2^62 documents, and a field claiming 2^32-1 values, are
  // truncated files like any other.
  WriteBytes(path, CorpusHeader(uint64_t{1} << 62));
  EXPECT_EQ(ReadCorpusFile(path).status().code(),
            StatusCode::kInvalidArgument);
  WriteBytes(path, CorpusHeader(1) + Str("d1") + Le(uint32_t{1}) +
                       Str("title") + Le(uint32_t{0xFFFFFFFF}) + Str("x"));
  EXPECT_EQ(ReadCorpusDocuments(path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CorpusFileTest, TruncatedFileRejected) {
  auto engine = MakeSmallEngine();
  const std::string path = TempPath("truncated.tjc");
  ASSERT_TRUE(WriteCorpusFile(*engine, path).ok());
  // Truncate to half.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  EXPECT_FALSE(ReadCorpusFile(path).ok());
  std::remove(path.c_str());
}

TEST(IndexFileTest, DiskListsMatchMemoryLists) {
  auto engine = MakeSmallEngine();
  const std::string path = TempPath("index_small.tji");
  ASSERT_TRUE(WriteIndexFile(*engine, path).ok());
  auto disk = DiskPostingIndex::Open(path, engine->num_documents());
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();

  size_t checked = 0;
  engine->index().ForEachList([&](const std::string& field,
                                  const std::string& token,
                                  const BlockPostings& block) {
    const PostingList mem = Materialize(block);
    auto from_disk = (*disk)->ReadList(field, token);
    ASSERT_TRUE(from_disk.ok());
    const PostingList got = Materialize(**from_disk);
    ASSERT_EQ(got.size(), mem.size()) << field << "/" << token;
    for (size_t i = 0; i < mem.size(); ++i) {
      EXPECT_EQ(got[i].doc, mem[i].doc);
      EXPECT_EQ(got[i].positions, mem[i].positions);
    }
    EXPECT_EQ((*disk)->DocFrequency(field, token), mem.size());
    ++checked;
  });
  EXPECT_EQ(checked, (*disk)->directory_size());
  EXPECT_GT(checked, 10u);
  // Missing tokens: empty list, zero frequency, no error.
  auto missing = (*disk)->ReadList("title", "zzznotthere");
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE((*missing)->empty());
  EXPECT_EQ((*disk)->DocFrequency("title", "zzznotthere"), 0u);
  // Case-insensitive like the in-memory directory.
  EXPECT_EQ((*disk)->DocFrequency("title", "BELIEF"), 2u);
  std::remove(path.c_str());
}

TEST(IndexFileTest, LargeRandomCorpusRoundtrip) {
  ScenarioConfig config;
  config.relations = {{"r", 100, {}}};
  config.predicates = {{"r", "c", "author", 80, 0.5, 3.0}};
  config.num_documents = 2000;
  config.filler_vocabulary = 500;
  auto scenario = BuildScenario(config);
  ASSERT_TRUE(scenario.ok());

  const std::string cpath = TempPath("corpus_large.tjc");
  const std::string ipath = TempPath("index_large.tji");
  ASSERT_TRUE(WriteCorpusFile(*scenario->engine, cpath).ok());
  ASSERT_TRUE(WriteIndexFile(*scenario->engine, ipath).ok());

  auto loaded = ReadCorpusFile(cpath);
  ASSERT_TRUE(loaded.ok());
  auto disk =
      DiskPostingIndex::Open(ipath, scenario->engine->num_documents());
  ASSERT_TRUE(disk.ok());

  // Random spot checks: disk lists equal both the original and the
  // reloaded engine's lists.
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    const std::string token =
        "p0v" + std::to_string(rng.Uniform(0, 79));
    const PostingList mem =
        Materialize(scenario->engine->index().Lookup("author", token));
    const PostingList reloaded =
        Materialize((*loaded)->index().Lookup("author", token));
    auto from_disk = (*disk)->ReadList("author", token);
    ASSERT_TRUE(from_disk.ok());
    EXPECT_EQ(DocsOf(Materialize(**from_disk)), DocsOf(mem));
    EXPECT_EQ(DocsOf(reloaded), DocsOf(mem));
  }
  std::remove(cpath.c_str());
  std::remove(ipath.c_str());
}

TEST(DiskEngineTest, SearchesMatchInMemoryEngine) {
  auto engine = MakeSmallEngine();
  const std::string cpath = TempPath("disk_engine.tjc");
  const std::string ipath = TempPath("disk_engine.tji");
  ASSERT_TRUE(WriteCorpusFile(*engine, cpath).ok());
  ASSERT_TRUE(WriteIndexFile(*engine, ipath).ok());
  auto disk = DiskTextEngine::Open(cpath, ipath, /*max_search_terms=*/70);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  EXPECT_EQ((*disk)->num_documents(), engine->num_documents());

  const char* queries[] = {
      "title='belief update'",
      "author='gravano' or author='kao'",
      "title='belief' and author='smith'",
      "author='gravano' and not title='text'",
      "title='belie?'",
      "title='zzznothing'",
  };
  for (const char* q : queries) {
    auto parsed = ParseTextQuery(q);
    ASSERT_TRUE(parsed.ok());
    auto mem = engine->Search(**parsed);
    auto dsk = (*disk)->Search(**parsed);
    ASSERT_TRUE(mem.ok());
    ASSERT_TRUE(dsk.ok()) << q;
    EXPECT_EQ(dsk->docs, mem->docs) << q;
    EXPECT_EQ(dsk->postings_processed, mem->postings_processed) << q;
  }
  // Long forms come back identical.
  auto num = (*disk)->FindDocid("d3");
  ASSERT_TRUE(num.ok());
  EXPECT_EQ((*disk)->GetDocument(*num).fields,
            engine->GetDocument(*engine->FindDocid("d3")).fields);
  std::remove(cpath.c_str());
  std::remove(ipath.c_str());
}

TEST(DiskEngineTest, FullFederatedQueryOverDiskServer) {
  // The whole point of the loose-integration design: the join methods and
  // executor run unchanged against a server whose lists live on disk.
  auto engine = MakeSmallEngine();
  const std::string cpath = TempPath("fed_disk.tjc");
  const std::string ipath = TempPath("fed_disk.tji");
  ASSERT_TRUE(WriteCorpusFile(*engine, cpath).ok());
  ASSERT_TRUE(WriteIndexFile(*engine, ipath).ok());
  auto disk = DiskTextEngine::Open(cpath, ipath);
  ASSERT_TRUE(disk.ok());

  RemoteTextSource source(disk->get());
  ForeignJoinSpec spec;
  auto table = textjoin::testing::MakeStudentTable();
  spec.left_schema = table->schema();
  spec.text = textjoin::testing::MercuryDecl();
  spec.selections = {{"belief", "title"}};
  spec.joins = {{"student.name", "author"}};
  auto result = ExecuteForeignJoin(JoinMethodKind::kTS, spec, table->rows(),
                                   source);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(textjoin::testing::PairSet(*result,
                                       table->schema().num_columns())
                .size(),
            3u);  // Radhika/d1, Smith/d1, Kao/d4
  EXPECT_EQ(source.meter().invocations, 5u);
  std::remove(cpath.c_str());
  std::remove(ipath.c_str());
}


TEST(IndexFileTest, CompressionShrinksTheIndex) {
  // The delta+varint lists must be much smaller than a naive fixed-width
  // encoding (12+ bytes per posting for doc + count + one position).
  ScenarioConfig config;
  config.relations = {{"r", 100, {}}};
  config.predicates = {{"r", "c", "author", 40, 1.0, 50.0}};
  config.num_documents = 10000;
  config.filler_vocabulary = 300;
  auto scenario = BuildScenario(config);
  ASSERT_TRUE(scenario.ok());
  const std::string path = TempPath("compressed.tji");
  ASSERT_TRUE(WriteIndexFile(*scenario->engine, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long file_size = std::ftell(f);
  std::fclose(f);
  const uint64_t postings = scenario->engine->index().TotalPostings();
  // Naive encoding would be >= 12 bytes/posting plus the directory.
  EXPECT_LT(static_cast<uint64_t>(file_size), 12 * postings)
      << "postings=" << postings << " file=" << file_size;
  // And decoding still roundtrips exactly (spot check the fattest lists).
  auto disk = DiskPostingIndex::Open(path, scenario->engine->num_documents());
  ASSERT_TRUE(disk.ok());
  for (int j = 0; j < 40; ++j) {
    const std::string token = "p0v" + std::to_string(j);
    const PostingList mem =
        Materialize(scenario->engine->index().Lookup("author", token));
    auto from_disk = (*disk)->ReadList("author", token);
    ASSERT_TRUE(from_disk.ok());
    const PostingList got = Materialize(**from_disk);
    ASSERT_EQ(got.size(), mem.size());
    for (size_t i = 0; i < mem.size(); ++i) {
      EXPECT_EQ(got[i].doc, mem[i].doc);
      EXPECT_EQ(got[i].positions, mem[i].positions);
    }
  }
  std::remove(path.c_str());
}

TEST(IndexFileTest, OpenErrors) {
  EXPECT_EQ(
      DiskPostingIndex::Open("/nonexistent/nope.tji", 1).status().code(),
      StatusCode::kNotFound);
  // Corpus file is not an index file.
  auto engine = MakeSmallEngine();
  const std::string path = TempPath("wrongkind.tjc");
  ASSERT_TRUE(WriteCorpusFile(*engine, path).ok());
  EXPECT_EQ(DiskPostingIndex::Open(path, 1).status().code(),
            StatusCode::kInvalidArgument);
  // A directory entry whose list runs past the end of the file is refused
  // at open, before any read allocates its claimed length.
  const std::string list = Varints({0, 1, 0});
  std::string bytes = IndexWithOneList("x", 1, list);
  WriteBytes(path, bytes);
  EXPECT_TRUE(DiskPostingIndex::Open(path, 1).ok());
  WriteBytes(path, bytes.substr(0, bytes.size() - 1));
  EXPECT_EQ(DiskPostingIndex::Open(path, 1).status().code(),
            StatusCode::kInvalidArgument);
  const size_t bytes_field = bytes.size() - list.size() - 8;
  bytes.replace(bytes_field, 4, Le(uint32_t{0xFFFFFFFF}));
  WriteBytes(path, bytes);
  EXPECT_EQ(DiskPostingIndex::Open(path, 1).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(DiskEngineTest, CorruptListsAreErrors) {
  // A two-document corpus whose index holds one hand-encoded list. Each
  // list below is (doc delta, position count, position deltas...) per
  // posting; a corrupt one must fail the search with InvalidArgument
  // instead of aborting in BlockPostings::Append or in GetDocument when
  // the source resolves a docid.
  TextEngine two;
  ASSERT_TRUE(two.AddDocument(textjoin::testing::MakeDoc("a", "x", {})).ok());
  ASSERT_TRUE(two.AddDocument(textjoin::testing::MakeDoc("b", "x", {})).ok());
  const std::string cpath = TempPath("corrupt_lists.tjc");
  const std::string ipath = TempPath("corrupt_lists.tji");
  ASSERT_TRUE(WriteCorpusFile(two, cpath).ok());
  TextQueryPtr query = TextQuery::Term("title", "x");

  struct Case {
    const char* label;
    uint32_t postings;
    std::string list;
  };
  const Case cases[] = {
      {"second doc delta wraps DocNum", 2,
       Varints({1, 1, 0, 0xFFFFFFFF, 1, 0})},
      {"doc 7 in a 2-document corpus", 1, Varints({7, 1, 0})},
      {"repeated doc", 2, Varints({0, 1, 0, 0, 1, 3})},
      {"posting without positions", 1, Varints({0, 0})},
      {"repeated position", 1, Varints({0, 2, 4, 0})},
      {"position past TokenPos", 1, Varints({0, 2, 1, 0xFFFFFFFF})},
  };
  for (const Case& c : cases) {
    WriteBytes(ipath, IndexWithOneList("x", c.postings, c.list));
    auto disk = DiskTextEngine::Open(cpath, ipath);
    ASSERT_TRUE(disk.ok()) << c.label;
    auto result = (*disk)->Search(*query);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << c.label;
    RemoteTextSource source(disk->get());
    EXPECT_EQ(source.Search(*query).status().code(),
              StatusCode::kInvalidArgument)
        << c.label;
  }
  // The same file with a well-formed list serves both documents.
  WriteBytes(ipath, IndexWithOneList("x", 2, Varints({0, 1, 0, 1, 2, 0, 5})));
  auto disk = DiskTextEngine::Open(cpath, ipath);
  ASSERT_TRUE(disk.ok());
  auto result = (*disk)->Search(*query);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->docs, (std::vector<DocNum>{0, 1}));
  std::remove(cpath.c_str());
  std::remove(ipath.c_str());
}

}  // namespace
}  // namespace textjoin
