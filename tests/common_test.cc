#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <set>
#include <vector>

#include "common/arena.h"
#include "common/random.h"
#include "common/status.h"
#include "common/string_util.h"
#include "common/text_match.h"
#include "common/value.h"

namespace textjoin {
namespace {

// ---------------------------------------------------------------- Status

TEST(StatusTest, OkByDefault) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::NotFound("missing table");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kNotFound);
  EXPECT_EQ(st.message(), "missing table");
  EXPECT_EQ(st.ToString(), "NotFound: missing table");
}

TEST(StatusTest, AllCodesHaveNames) {
  EXPECT_STREQ(StatusCodeName(StatusCode::kInvalidArgument),
               "InvalidArgument");
  EXPECT_STREQ(StatusCodeName(StatusCode::kResourceExhausted),
               "ResourceExhausted");
  EXPECT_STREQ(StatusCodeName(StatusCode::kInternal), "Internal");
  EXPECT_STREQ(StatusCodeName(StatusCode::kUnimplemented), "Unimplemented");
  EXPECT_STREQ(StatusCodeName(StatusCode::kAlreadyExists), "AlreadyExists");
  EXPECT_STREQ(StatusCodeName(StatusCode::kOutOfRange), "OutOfRange");
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::InvalidArgument("bad");
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, MoveOutValue) {
  Result<std::string> r = std::string("hello");
  std::string moved = std::move(r).value();
  EXPECT_EQ(moved, "hello");
}

// ----------------------------------------------------------------- Value

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(7).AsInt(), 7);
  EXPECT_DOUBLE_EQ(Value::Real(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::Str("x").AsString(), "x");
  EXPECT_EQ(Value::Int(7).type(), ValueType::kInt64);
  EXPECT_EQ(Value::Str("x").type(), ValueType::kString);
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value::Int(3), Value::Real(3.0));
  EXPECT_LT(Value::Int(3), Value::Real(3.5));
  EXPECT_GT(Value::Real(4.0), Value::Int(3));
}

TEST(ValueTest, NullOrdering) {
  EXPECT_EQ(Value::Null(), Value::Null());
  EXPECT_LT(Value::Null(), Value::Int(0));
  EXPECT_LT(Value::Null(), Value::Str(""));
}

TEST(ValueTest, StringOrdering) {
  EXPECT_LT(Value::Str("abc"), Value::Str("abd"));
  EXPECT_EQ(Value::Str("abc"), Value::Str("abc"));
  // Numbers order before strings (stable cross-type rank).
  EXPECT_LT(Value::Int(999), Value::Str("0"));
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(3).Hash(), Value::Real(3.0).Hash());
  EXPECT_EQ(Value::Str("abc").Hash(), Value::Str("abc").Hash());
}

TEST(ValueTest, ToStringRendering) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int(-5).ToString(), "-5");
  EXPECT_EQ(Value::Str("hi").ToString(), "'hi'");
}

// --------------------------------------------------------------- Strings

TEST(StringUtilTest, ToLower) {
  EXPECT_EQ(ToLower("AbC123"), "abc123");
  EXPECT_EQ(ToLower(""), "");
}

TEST(StringUtilTest, Trim) {
  EXPECT_EQ(Trim("  x y  "), "x y");
  EXPECT_EQ(Trim("\t\n"), "");
  EXPECT_EQ(Trim("abc"), "abc");
}

TEST(StringUtilTest, SplitAndJoin) {
  EXPECT_EQ(Split("a,b,,c", ','),
            (std::vector<std::string>{"a", "b", "", "c"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, EqualsIgnoreCase) {
  EXPECT_TRUE(EqualsIgnoreCase("TiTlE", "title"));
  EXPECT_FALSE(EqualsIgnoreCase("title", "titles"));
}

TEST(StringUtilTest, LikeMatchBasics) {
  EXPECT_TRUE(LikeMatch("hello world", "hello%"));
  EXPECT_TRUE(LikeMatch("hello world", "%world"));
  EXPECT_TRUE(LikeMatch("hello world", "%lo wo%"));
  EXPECT_TRUE(LikeMatch("abc", "a_c"));
  EXPECT_FALSE(LikeMatch("abc", "a_d"));
  EXPECT_TRUE(LikeMatch("abc", "%"));
  EXPECT_FALSE(LikeMatch("abc", ""));
  EXPECT_TRUE(LikeMatch("", ""));
  EXPECT_TRUE(LikeMatch("", "%"));
}

TEST(StringUtilTest, LikeMatchCaseInsensitive) {
  EXPECT_TRUE(LikeMatch("Hello World", "hello%"));
}

TEST(StringUtilTest, LikeMatchBacktracking) {
  // Requires retrying the '%' expansion.
  EXPECT_TRUE(LikeMatch("aXbXcd", "%X%cd"));
  EXPECT_FALSE(LikeMatch("aXbXce", "%X%cd"));
}

// ------------------------------------------------------------ TextMatch

TEST(TextMatchTest, TokenizeBasics) {
  EXPECT_EQ(TokenizeText("Belief Update!"),
            (std::vector<std::string>{"belief", "update"}));
  EXPECT_EQ(TokenizeText("  a-b_c  "),
            (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_TRUE(TokenizeText("...").empty());
  EXPECT_EQ(TokenizeText("x2y"), (std::vector<std::string>{"x2y"}));
}

TEST(TextMatchTest, WordMatch) {
  EXPECT_TRUE(TermMatchesFieldText("update", "Belief update in KBs"));
  EXPECT_FALSE(TermMatchesFieldText("updates", "Belief update in KBs"));
  EXPECT_TRUE(TermMatchesFieldText("UPDATE", "belief update"));
}

TEST(TextMatchTest, PhraseMatch) {
  EXPECT_TRUE(TermMatchesFieldText("belief update", "On belief update."));
  EXPECT_FALSE(TermMatchesFieldText("update belief", "On belief update."));
  EXPECT_TRUE(TermMatchesFieldText("a b c", "x a b c y"));
  EXPECT_FALSE(TermMatchesFieldText("a b c", "a b x c"));
}

TEST(TextMatchTest, EmptyTermNeverMatches) {
  EXPECT_FALSE(TermMatchesFieldText("", "anything"));
  EXPECT_FALSE(TermMatchesFieldText("...", "anything"));
}

TEST(TextMatchTest, PhraseDoesNotCrossValueSeparator) {
  const std::string multi = JoinFieldValues({"John Smith", "Mary Jones"});
  EXPECT_TRUE(TermMatchesFieldText("john smith", multi));
  EXPECT_TRUE(TermMatchesFieldText("mary jones", multi));
  EXPECT_FALSE(TermMatchesFieldText("smith mary", multi));
}

TEST(TextMatchTest, SplitJoinRoundtrip) {
  const std::vector<std::string> values = {"a b", "c", ""};
  EXPECT_EQ(SplitFieldValues(JoinFieldValues(values)), values);
}

TEST(TextMatchTest, TokensContainPhraseEdges) {
  using Toks = std::vector<std::string>;
  EXPECT_FALSE(TokensContainPhrase(Toks{}, Toks{"a"}));
  EXPECT_FALSE(TokensContainPhrase(Toks{"a"}, Toks{}));
  EXPECT_TRUE(TokensContainPhrase(Toks{"a"}, Toks{"a"}));
  EXPECT_FALSE(TokensContainPhrase(Toks{"a"}, Toks{"a", "b"}));
}

// ---------------------------------------------------------------- Random

TEST(RandomTest, DeterministicGivenSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Uniform(0, 1000), b.Uniform(0, 1000));
  }
}

TEST(RandomTest, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const int64_t v = rng.Uniform(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
  }
}

TEST(RandomTest, BernoulliExtremes) {
  Rng rng(7);
  EXPECT_FALSE(rng.Bernoulli(0.0));
  EXPECT_TRUE(rng.Bernoulli(1.0));
}

TEST(RandomTest, BernoulliApproximatesP) {
  Rng rng(99);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RandomTest, SampleIndicesWithoutReplacement) {
  Rng rng(5);
  const std::vector<size_t> sample = rng.SampleIndices(100, 20);
  EXPECT_EQ(sample.size(), 20u);
  std::set<size_t> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 20u);
  for (size_t idx : sample) EXPECT_LT(idx, 100u);
}

TEST(RandomTest, SampleIndicesClampsToN) {
  Rng rng(5);
  EXPECT_EQ(rng.SampleIndices(3, 10).size(), 3u);
}

TEST(RandomTest, ZipfUniformWhenThetaZero) {
  Rng rng(11);
  ZipfGenerator zipf(10, 0.0);
  std::vector<int> counts(10, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.Next(rng)];
  for (int c : counts) EXPECT_NEAR(c, 5000, 450);
}

TEST(RandomTest, ZipfSkewsTowardLowRanks) {
  Rng rng(11);
  ZipfGenerator zipf(100, 1.0);
  std::vector<int> counts(100, 0);
  for (int i = 0; i < 50000; ++i) ++counts[zipf.Next(rng)];
  EXPECT_GT(counts[0], counts[50] * 5);
}

// ----------------------------------------------------------------- Arena

/// Whether `p` is aligned to `align`.
bool AlignedTo(const void* p, size_t align) {
  return reinterpret_cast<uintptr_t>(p) % align == 0;
}

TEST(ArenaTest, FirstChunkFitsALargerFirstRequest) {
  Arena arena;
  const size_t big = 3 * Arena::kDefaultChunkBytes;
  char* p = arena.AllocArray<char>(big);
  std::fill(p, p + big, 'x');
  EXPECT_EQ(arena.num_chunks(), 1u);
  EXPECT_GE(arena.bytes_reserved(), big);
  EXPECT_EQ(arena.bytes_allocated(), big);
}

TEST(ArenaTest, SmallRequestsShareTheDefaultFirstChunk) {
  Arena arena;
  for (int i = 0; i < 16; ++i) arena.AllocArray<uint32_t>(8);
  EXPECT_EQ(arena.num_chunks(), 1u);
  EXPECT_EQ(arena.bytes_reserved(), Arena::kDefaultChunkBytes);
  EXPECT_EQ(arena.allocations(), 16u);
}

TEST(ArenaTest, ChunksGrowGeometrically) {
  Arena arena(64);
  size_t chunks = 0;
  size_t reserved = 0;
  std::vector<size_t> sizes;
  for (int i = 0; i < 200; ++i) {
    arena.AllocArray<char>(40);
    if (arena.num_chunks() != chunks) {
      sizes.push_back(arena.bytes_reserved() - reserved);
      chunks = arena.num_chunks();
      reserved = arena.bytes_reserved();
    }
  }
  ASSERT_GE(sizes.size(), 4u);
  EXPECT_EQ(sizes[0], 64u);
  for (size_t i = 1; i < sizes.size(); ++i) {
    EXPECT_EQ(sizes[i], 2 * sizes[i - 1]) << "chunk " << i;
  }
}

TEST(ArenaTest, AllocationsAreAlignedAndDisjoint) {
  Arena arena(128);
  std::vector<std::pair<char*, size_t>> blocks;
  const size_t aligns[] = {1, 2, 4, 8, 16, 64};
  for (int i = 0; i < 300; ++i) {
    const size_t align = aligns[i % 6];
    const size_t bytes = 1 + static_cast<size_t>(i * 7 % 50);
    char* p = static_cast<char*>(arena.AllocBytes(bytes, align));
    EXPECT_TRUE(AlignedTo(p, align)) << "request " << i;
    std::memset(p, i & 0xff, bytes);
    blocks.push_back({p, bytes});
  }
  // Every block still holds what was written to it: none overlaps another.
  for (size_t i = 0; i < blocks.size(); ++i) {
    for (size_t b = 0; b < blocks[i].second; ++b) {
      ASSERT_EQ(static_cast<unsigned char>(blocks[i].first[b]), i & 0xff);
    }
  }
}

TEST(ArenaTest, ResetReusesTheLargestChunk) {
  Arena arena;
  arena.AllocArray<char>(100);
  const size_t small = arena.bytes_reserved();
  arena.AllocArray<char>(3 * Arena::kDefaultChunkBytes);
  ASSERT_EQ(arena.num_chunks(), 2u);
  const size_t largest = arena.bytes_reserved() - small;
  ASSERT_GT(largest, small);
  arena.Reset();
  EXPECT_EQ(arena.num_chunks(), 1u);
  EXPECT_EQ(arena.bytes_reserved(), largest);
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  EXPECT_EQ(arena.allocations(), 0u);
  // A search of the same size fits the kept chunk: no new chunk.
  const char* first = arena.AllocArray<char>(largest / 2);
  arena.AllocArray<char>(largest / 4);
  EXPECT_EQ(arena.num_chunks(), 1u);
  arena.Reset();
  EXPECT_EQ(arena.AllocArray<char>(8), first) << "Reset rewinds the chunk";
}

TEST(ArenaTest, ResetReleasesChunksPastTheRetentionBound) {
  Arena arena;
  arena.AllocArray<char>(Arena::kMaxRetainedBytes + 1);
  arena.Reset();
  EXPECT_EQ(arena.num_chunks(), 0u);
  EXPECT_EQ(arena.bytes_reserved(), 0u);
  arena.AllocArray<char>(16);
  EXPECT_EQ(arena.bytes_reserved(), Arena::kDefaultChunkBytes);
  // A search past the bound keeps the largest chunk within it.
  arena.AllocArray<char>(Arena::kMaxRetainedBytes + 1);
  ASSERT_EQ(arena.num_chunks(), 2u);
  arena.Reset();
  EXPECT_EQ(arena.num_chunks(), 1u);
  EXPECT_EQ(arena.bytes_reserved(), Arena::kDefaultChunkBytes);
}

}  // namespace
}  // namespace textjoin
