#include "connector/text_cache.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <latch>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "connector/chaos.h"
#include "connector/corpus_writer.h"
#include "connector/remote_text_source.h"
#include "connector/resilience.h"
#include "core/executor.h"
#include "core/join_methods.h"
#include "relational/catalog.h"
#include "sql/federation_service.h"
#include "tests/test_util.h"
#include "text/live_corpus.h"

namespace textjoin {
namespace {

using textjoin::testing::MakeSmallEngine;
using textjoin::testing::MakeStudentTable;
using textjoin::testing::MercuryDecl;

using SearchResult = Result<std::vector<std::string>>;

// ------------------------------------------------------- Canonical keys
//
// Targeted cases; the seeded reorder/duplication fuzz lives in
// property_test.cc (CanonicalKey* there) next to the other properties.

TextQueryPtr Parse(const std::string& text) {
  auto parsed = ParseTextQuery(text);
  TEXTJOIN_CHECK(parsed.ok(), "%s", parsed.status().ToString().c_str());
  return std::move(*parsed);
}

TEST(CanonicalKeyTest, ConjunctOrderInsensitive) {
  TextQueryPtr a = Parse("title='belief' and author='smith'");
  TextQueryPtr b = Parse("author='smith' and title='belief'");
  EXPECT_NE(a->ToString(), b->ToString());
  EXPECT_EQ(a->CanonicalKey(), b->CanonicalKey());
}

TEST(CanonicalKeyTest, DisjunctOrderInsensitive) {
  TextQueryPtr a = Parse("author='kao' or author='smith' or author='yan'");
  TextQueryPtr b = Parse("author='yan' or author='kao' or author='smith'");
  EXPECT_EQ(a->CanonicalKey(), b->CanonicalKey());
}

TEST(CanonicalKeyTest, DuplicateConjunctsCollapse) {
  TextQueryPtr a = Parse("title='belief' and title='belief' and author='kao'");
  TextQueryPtr b = Parse("author='kao' and title='belief'");
  EXPECT_EQ(a->CanonicalKey(), b->CanonicalKey());
}

TEST(CanonicalKeyTest, SameKindNestingFlattens) {
  // and(a, and(b, c)) == and(a, b, c); single-child and(x) == x.
  std::vector<TextQueryPtr> inner;
  inner.push_back(TextQuery::Term("author", "kao"));
  inner.push_back(TextQuery::Term("author", "smith"));
  std::vector<TextQueryPtr> outer;
  outer.push_back(TextQuery::Term("title", "belief"));
  outer.push_back(TextQuery::And(std::move(inner)));
  TextQueryPtr nested = TextQuery::And(std::move(outer));
  TextQueryPtr flat =
      Parse("title='belief' and author='kao' and author='smith'");
  EXPECT_EQ(nested->CanonicalKey(), flat->CanonicalKey());

  std::vector<TextQueryPtr> single;
  single.push_back(TextQuery::Term("title", "belief"));
  EXPECT_EQ(TextQuery::And(std::move(single))->CanonicalKey(),
            TextQuery::Term("title", "belief")->CanonicalKey());
}

TEST(CanonicalKeyTest, DistinctSemanticsKeepDistinctKeys) {
  // Connective matters.
  EXPECT_NE(Parse("title='belief' and author='kao'")->CanonicalKey(),
            Parse("title='belief' or author='kao'")->CanonicalKey());
  // Negation matters.
  EXPECT_NE(Parse("title='belief'")->CanonicalKey(),
            Parse("not title='belief'")->CanonicalKey());
  // Prefix vs word matters.
  EXPECT_NE(TextQuery::Term("title", "filter", TermKind::kPrefix)
                ->CanonicalKey(),
            TextQuery::Term("title", "filter", TermKind::kWordOrPhrase)
                ->CanonicalKey());
  // Proximity distance and operand order matter (near is not commutative
  // at this layer; the canonicalization stays conservative).
  TextQueryPtr near5 = TextQuery::Near(TextQuery::Term("title", "information"),
                                       TextQuery::Term("title", "filtering"),
                                       5);
  TextQueryPtr near7 = TextQuery::Near(TextQuery::Term("title", "information"),
                                       TextQuery::Term("title", "filtering"),
                                       7);
  TextQueryPtr swapped = TextQuery::Near(
      TextQuery::Term("title", "filtering"),
      TextQuery::Term("title", "information"), 5);
  EXPECT_NE(near5->CanonicalKey(), near7->CanonicalKey());
  EXPECT_NE(near5->CanonicalKey(), swapped->CanonicalKey());
}

TEST(CanonicalKeyTest, FieldTermBoundaryIsUnambiguous) {
  // Without a separator, field="a" term="bc" and field="ab" term="c" would
  // concatenate to the same key.
  EXPECT_NE(TextQuery::Term("a", "bc")->CanonicalKey(),
            TextQuery::Term("ab", "c")->CanonicalKey());
}

Document MakeEditedDoc(std::string docid, std::string title,
                       std::string author, std::string editor) {
  Document doc;
  doc.docid = std::move(docid);
  doc.fields["title"] = {std::move(title)};
  doc.fields["author"] = {std::move(author)};
  doc.fields["editor"] = {std::move(editor)};
  return doc;
}

// ------------------------------------------------------- TextCache wall
//
// LRU byte accounting, eviction order, write invalidation and admission
// need no clock at all (recency is positional, not temporal), so there are
// no sleeps and nothing to fake.

using Docids = TextCache::Docids;

void PutSearch(TextCache& cache, const std::string& key,
               std::vector<std::string> docids,
               TermSignature signature = TermSignature()) {
  TextCache::Ticket<Docids> ticket = cache.Begin<Docids>(key);
  ASSERT_TRUE(ticket.leader) << "entry for '" << key << "' already present";
  cache.Finish(ticket, SearchResult(std::move(docids)), std::move(signature));
}

/// Begins a lookup of a search key; a miss retires the leader slot it
/// opened with a failure (nothing admitted).
bool SearchHits(TextCache& cache, const std::string& key,
                const TenantId& tenant = TenantId(),
                uint64_t pinned = kUnpinnedEpoch) {
  TextCache::Ticket<Docids> ticket = cache.Begin<Docids>(key, tenant, pinned);
  if (ticket.leader) {
    cache.Finish(ticket, SearchResult(Status::Unavailable("x")), {});
  }
  return ticket.cached.has_value();
}

TermSignature Terms(std::vector<std::string> terms) {
  TermSignature signature;
  signature.terms = std::move(terms);
  return signature;
}

TEST(TextCacheTest, ByteAccountingTracksInsertsAndInvalidation) {
  TextCache cache;
  EXPECT_EQ(cache.Stats().bytes, 0u);

  PutSearch(cache, "q1", {"d1", "d2"}, Terms({"title\x1f" "a"}));
  const CacheStats after_one = cache.Stats();
  EXPECT_EQ(after_one.entries, 1u);
  EXPECT_EQ(after_one.insertions, 1u);
  EXPECT_GT(after_one.bytes, 0u);

  PutSearch(cache, "q2", {"d3"}, Terms({"title\x1f" "b"}));
  const CacheStats after_two = cache.Stats();
  EXPECT_EQ(after_two.entries, 2u);
  EXPECT_GT(after_two.bytes, after_one.bytes);
  // A longer result costs more bytes than a shorter one (monotone model).
  EXPECT_GT(after_one.bytes, after_two.bytes - after_one.bytes);

  // A write touching q2's term returns exactly q2's bytes.
  cache.ApplyWrite({1, {"title\x1f" "b"}, {}, false});
  const CacheStats after_write = cache.Stats();
  EXPECT_EQ(after_write.entries, 1u);
  EXPECT_EQ(after_write.bytes, after_one.bytes);
  EXPECT_EQ(after_write.invalidations, 1u);
  EXPECT_EQ(after_write.surgical_invalidations, 1u);
  EXPECT_TRUE(SearchHits(cache, "q1"));
  EXPECT_FALSE(SearchHits(cache, "q2"));
}

TEST(TextCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  // Measure one entry's modeled size, then build a cache that holds
  // exactly two entries of that size.
  size_t entry_bytes = 0;
  {
    TextCache probe;
    PutSearch(probe, "A", {"d1"});
    entry_bytes = probe.Stats().bytes;
  }
  ASSERT_GT(entry_bytes, 0u);

  CacheOptions options;
  options.byte_budget = 2 * entry_bytes + entry_bytes / 2;
  // Lift the per-entry cap (default budget/8 would reject everything);
  // this test is about the byte budget, not oversize rejection.
  options.max_entry_bytes = entry_bytes;
  TextCache cache(options);
  PutSearch(cache, "A", {"d1"});
  PutSearch(cache, "B", {"d2"});
  // Touch A: B becomes the least recently used entry.
  EXPECT_TRUE(SearchHits(cache, "A"));
  PutSearch(cache, "C", {"d3"});

  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_LE(stats.bytes, options.byte_budget);

  EXPECT_TRUE(SearchHits(cache, "A"));
  EXPECT_TRUE(SearchHits(cache, "C"));
  EXPECT_FALSE(SearchHits(cache, "B")) << "LRU victim must be B";
}

TEST(TextCacheTest, BudgetIsNeverExceeded) {
  CacheOptions options;
  options.byte_budget = 600;       // A handful of small entries.
  options.max_entry_bytes = 300;   // Budget, not the per-entry cap, binds.
  TextCache cache(options);
  for (int i = 0; i < 50; ++i) {
    // Two-step concat: GCC 12's -Wrestrict misfires on
    // operator+(const char*, std::string&&) and CI builds with -Werror.
    std::string key = "q";
    key += std::to_string(i);
    std::string docid = "d";
    docid += std::to_string(i);
    PutSearch(cache, key, {docid});
    EXPECT_LE(cache.Stats().bytes, options.byte_budget);
  }
  EXPECT_GT(cache.Stats().evictions, 0u);
}

TEST(TextCacheTest, FailuresAreNeverCached) {
  TextCache cache;
  TextCache::Ticket<Docids> t = cache.Begin<Docids>("q");
  ASSERT_TRUE(t.leader);
  cache.Finish(t, SearchResult(Status::Unavailable("flaky")), {});
  EXPECT_EQ(cache.Stats().insertions, 0u);
  // The next caller is a fresh leader, not a hit and not a waiter.
  TextCache::Ticket<Docids> again = cache.Begin<Docids>("q");
  EXPECT_FALSE(again.cached.has_value());
  EXPECT_TRUE(again.leader);
  cache.Finish(again, SearchResult({"d1"}), {});
  EXPECT_TRUE(SearchHits(cache, "q"));
}

TEST(TextCacheTest, AdmissionFollowsTheCostModel) {
  // Default cost constants: invocation 3.0s, short form 0.015s/doc, long
  // form 4.0s. With a 3.5s floor the model must admit a long-form document
  // (4.0) and a fat search (3.0 + 100*0.015 = 4.5) but reject a probe
  // outcome (3.0) and an empty-result search (3.0).
  CacheOptions options;
  options.min_saving_seconds = 3.5;
  TextCache cache(options);

  cache.InsertProbe("probe", true, {});
  EXPECT_FALSE(cache.LookupProbe("probe").has_value());
  EXPECT_EQ(cache.Stats().admission_rejects, 1u);

  PutSearch(cache, "thin", {});
  EXPECT_FALSE(SearchHits(cache, "thin"));

  std::vector<std::string> fat(100, "");
  for (size_t i = 0; i < fat.size(); ++i) {
    fat[i] = "d";
    fat[i] += std::to_string(i);
  }
  PutSearch(cache, "fat", fat);
  EXPECT_TRUE(SearchHits(cache, "fat"));

  Document doc;
  doc.docid = "d1";
  doc.fields["title"] = {"Belief update"};
  TextCache::Ticket<Document> fetch = cache.Begin<Document>("d1");
  ASSERT_TRUE(fetch.leader);
  cache.Finish(fetch, Result<Document>(doc), {});
  EXPECT_TRUE(cache.Begin<Document>("d1").cached.has_value());
}

TEST(TextCacheTest, OversizeEntriesAreRejected) {
  CacheOptions options;
  options.max_entry_bytes = 128;
  TextCache cache(options);
  PutSearch(cache, "huge", std::vector<std::string>(64, "long-docid-string"));
  EXPECT_FALSE(SearchHits(cache, "huge"));
  EXPECT_GE(cache.Stats().admission_rejects, 1u);
  // EffectiveMaxEntryBytes defaults to budget/8 when unset.
  CacheOptions defaults;
  EXPECT_EQ(defaults.EffectiveMaxEntryBytes(), defaults.byte_budget / 8);
}

// ------------------------------------------------ Write invalidation
//
// ApplyWrite is the cache's one invalidation route (the CorpusWriter calls
// it for every live write). Signatures and write terms come from the real
// SignatureOfQuery / WriteTermsOfDocument, so the analyzer's tokens are
// what meets on both sides.

TermSignature SignatureOf(const std::string& text) {
  return SignatureOfQuery(*Parse(text));
}

/// The invalidation a CorpusWriter computes for one write: `before` is
/// the dying version (null for inserts), `after` the new one (null for
/// deletes).
WriteInvalidation WriteOf(uint64_t epoch, const Document* before,
                          const Document* after) {
  WriteInvalidation write;
  write.epoch = epoch;
  for (const Document* doc : {before, after}) {
    if (doc == nullptr) continue;
    std::vector<std::string> terms = WriteTermsOfDocument(*doc);
    write.terms.insert(write.terms.end(), terms.begin(), terms.end());
    write.docids = {doc->docid};
  }
  std::sort(write.terms.begin(), write.terms.end());
  write.universe_changed = before == nullptr || after == nullptr;
  return write;
}

void PutDocument(TextCache& cache, const Document& doc) {
  TextCache::Ticket<Document> ticket = cache.Begin<Document>(doc.docid);
  ASSERT_TRUE(ticket.leader);
  cache.Finish(ticket, Result<Document>(doc), {});
}

bool DocumentHits(TextCache& cache, const std::string& docid) {
  TextCache::Ticket<Document> ticket = cache.Begin<Document>(docid);
  if (ticket.leader) {
    cache.Finish(ticket, Result<Document>(Status::NotFound("x")), {});
  }
  return ticket.cached.has_value();
}

TEST(TextCacheWriteTest, WriteErasesExactlyTheEntriesItTouches) {
  TextCache cache;
  const std::vector<std::string> searches = {
      "title='retrieval'",      // Term.
      "title='belief update'",  // Phrase: one signature term per token.
      "title='filt?'",          // Prefix.
      "not title='zebra'",      // NOT: universe-sensitive.
      "author='kao'",
  };
  for (const std::string& text : searches) {
    PutSearch(cache, text, {"d1"}, SignatureOf(text));
  }
  const Document d1 = MakeEditedDoc("d1", "Text retrieval", "Kao", "Xavier");
  const Document d2 = MakeEditedDoc("d2", "Query processing", "Kao", "Yan");
  PutDocument(cache, d1);
  PutDocument(cache, d2);
  ASSERT_EQ(cache.Stats().entries, 7u);
  const auto resident = [&cache](const std::string& key) {
    return SearchHits(cache, key);
  };

  // An update of d2 whose new title reads "belief filtering": the phrase
  // (token "belief"), the prefix ("filt" of "filtering"), author='kao'
  // (both versions carry author Kao) and d2's long form go. The NOT entry
  // stays: an update keeps the document universe.
  const Document d2_new =
      MakeEditedDoc("d2", "Belief filtering", "Kao", "Yan");
  cache.ApplyWrite(WriteOf(1, &d2, &d2_new));
  EXPECT_FALSE(resident("title='belief update'"));
  EXPECT_FALSE(resident("title='filt?'"));
  EXPECT_FALSE(resident("author='kao'"));
  EXPECT_FALSE(DocumentHits(cache, "d2"));
  EXPECT_TRUE(resident("title='retrieval'"));
  EXPECT_TRUE(resident("not title='zebra'"));
  EXPECT_TRUE(DocumentHits(cache, "d1"));
  EXPECT_EQ(cache.Stats().surgical_invalidations, 4u);

  // An insert whose terms touch no entry still changes the universe: the
  // NOT entry goes, nothing else.
  const Document d3 = MakeEditedDoc("d3", "Quantum", "Lee", "Moss");
  cache.ApplyWrite(WriteOf(2, nullptr, &d3));
  EXPECT_FALSE(resident("not title='zebra'"));
  EXPECT_TRUE(resident("title='retrieval'"));
  EXPECT_TRUE(DocumentHits(cache, "d1"));
  EXPECT_EQ(cache.Stats().surgical_invalidations, 5u);

  // A delete changes the universe too.
  PutSearch(cache, "not title='zebra'", {"d1"},
            SignatureOf("not title='zebra'"));
  cache.ApplyWrite(WriteOf(3, &d3, nullptr));
  EXPECT_FALSE(resident("not title='zebra'"));
  EXPECT_TRUE(resident("title='retrieval'"));
  EXPECT_TRUE(DocumentHits(cache, "d1"));
  EXPECT_EQ(cache.Stats().surgical_invalidations, 6u);

  // A delete of d1 reaches its long form and the term its title carries.
  cache.ApplyWrite(WriteOf(4, &d1, nullptr));
  EXPECT_FALSE(resident("title='retrieval'"));
  EXPECT_FALSE(DocumentHits(cache, "d1"));
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.surgical_invalidations, 8u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(stats.bytes, 0u);
  EXPECT_EQ(stats.invalidations, 4u);
  EXPECT_EQ(stats.evictions, 0u);
}

TEST(TextCacheWriteTest, LookupsPinnedBelowAnEntrysValidFromMiss) {
  TextCache cache;
  cache.ApplyWrite({3, {}, {}, false});  // Raises the write floor to 3.
  PutSearch(cache, "q", {"d1"});          // Admitted with valid_from = 3.
  EXPECT_FALSE(SearchHits(cache, "q", TenantId(), /*pinned=*/2));
  EXPECT_TRUE(SearchHits(cache, "q", TenantId(), /*pinned=*/3));
  EXPECT_TRUE(SearchHits(cache, "q", TenantId(), /*pinned=*/7));
  EXPECT_TRUE(SearchHits(cache, "q"));
  // The older pin's miss left the entry resident for fresher queries.
  EXPECT_EQ(cache.Stats().entries, 1u);

  cache.InsertProbe("p", true, {});
  EXPECT_FALSE(cache.LookupProbe("p", /*pinned=*/2).has_value());
  const std::optional<bool> at_floor = cache.LookupProbe("p", /*pinned=*/3);
  ASSERT_TRUE(at_floor.has_value());
  EXPECT_TRUE(*at_floor);
}

TEST(TextCacheWriteTest, LeaderPinnedBelowTheWriteFloorIsAStaleReject) {
  TextCache cache;
  TextCache::Ticket<Docids> stale = cache.Begin<Docids>("q", TenantId(), 1);
  ASSERT_TRUE(stale.leader);
  cache.ApplyWrite({2, {}, {}, false});  // Lands while the leader runs.
  cache.Finish(stale, SearchResult({"stale-docid"}), {});
  cache.InsertProbe("p", true, {}, TenantId(), /*pinned=*/1);

  CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.stale_rejects, 2u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(stats.entries, 0u);

  // A leader pinned at the floor publishes.
  TextCache::Ticket<Docids> fresh = cache.Begin<Docids>("q", TenantId(), 2);
  ASSERT_TRUE(fresh.leader);
  cache.Finish(fresh, SearchResult({"d1"}), {});
  stats = cache.Stats();
  EXPECT_EQ(stats.stale_rejects, 2u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_TRUE(SearchHits(cache, "q", TenantId(), 2));
}

TEST(TextCacheWriteTest, OneKeyAtTwoPinsGetsTwoFlightsAndTheLaterRefreshes) {
  TextCache cache;
  TextCache::Ticket<Docids> at1 = cache.Begin<Docids>("q", TenantId(), 1);
  TextCache::Ticket<Docids> at2 = cache.Begin<Docids>("q", TenantId(), 2);
  TextCache::Ticket<Docids> follower = cache.Begin<Docids>("q", TenantId(), 1);
  ASSERT_TRUE(at1.leader);
  ASSERT_TRUE(at2.leader);  // A different pin never joins the first flight.
  ASSERT_FALSE(follower.leader);
  ASSERT_NE(follower.flight, nullptr);
  EXPECT_EQ(cache.Stats().coalesced, 1u);

  cache.Finish(at1, SearchResult({"d1"}), {});
  auto waited = TextCache::Wait(follower);
  ASSERT_TRUE(waited.has_value());
  ASSERT_TRUE(waited->ok());
  EXPECT_EQ(**waited, (Docids{"d1"}));

  // The later publish replaces the entry rather than duplicating it.
  cache.Finish(at2, SearchResult({"d1", "d2"}), {});
  TextCache::Ticket<Docids> hit = cache.Begin<Docids>("q");
  ASSERT_TRUE(hit.cached.has_value());
  EXPECT_EQ(*hit.cached, (Docids{"d1", "d2"}));
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_EQ(stats.insertions, 2u);
}

// ------------------------------------------------------- Coalescing

TEST(TextCacheCoalesceTest, ConcurrentIdenticalSearchesShareOneFlight) {
  TextCache cache;
  TextCache::Ticket<Docids> leader = cache.Begin<Docids>("q");
  ASSERT_TRUE(leader.leader);

  constexpr int kFollowers = 4;
  std::latch joined(kFollowers);
  std::atomic<int> coalesced{0};
  std::vector<SearchResult> results(kFollowers,
                                    SearchResult(Status::Unavailable("")));
  std::vector<std::thread> threads;
  threads.reserve(kFollowers);
  for (int i = 0; i < kFollowers; ++i) {
    threads.emplace_back([&, i] {
      TextCache::Ticket<Docids> t = cache.Begin<Docids>("q");
      joined.count_down();
      if (t.flight != nullptr && !t.leader) {
        coalesced.fetch_add(1);
        auto waited = TextCache::Wait(t);
        if (waited.has_value()) results[i] = *std::move(waited);
      }
    });
  }
  // Every follower has joined the leader's flight before it publishes, so
  // the coalesce path (not the hit path) is what this exercises.
  joined.wait();
  cache.Finish(leader, SearchResult({"d1", "d2"}), {});
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(coalesced.load(), kFollowers);
  for (const SearchResult& r : results) {
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(*r, (std::vector<std::string>{"d1", "d2"}));
  }
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.coalesced, static_cast<uint64_t>(kFollowers));
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.search_misses, 1u + kFollowers);
  EXPECT_EQ(stats.search_hits, 0u);
}

TEST(TextCacheCoalesceTest, LeaderFailurePropagatesToWaitersUncached) {
  TextCache cache;
  TextCache::Ticket<Document> leader = cache.Begin<Document>("d9");
  ASSERT_TRUE(leader.leader);

  std::latch joined(1);
  Result<Document> follower_result(Status::Unavailable("pending"));
  std::thread follower([&] {
    TextCache::Ticket<Document> t = cache.Begin<Document>("d9");
    joined.count_down();
    ASSERT_FALSE(t.leader);
    ASSERT_NE(t.flight, nullptr);
    auto waited = TextCache::Wait(t);
    ASSERT_TRUE(waited.has_value());
    follower_result = *std::move(waited);
  });
  joined.wait();
  cache.Finish(leader, Result<Document>(Status::NotFound("gone")), {});
  follower.join();

  EXPECT_FALSE(follower_result.ok());
  EXPECT_EQ(follower_result.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(cache.Stats().insertions, 0u);
  // The flight is gone; a later caller becomes a fresh leader.
  TextCache::Ticket<Document> again = cache.Begin<Document>("d9");
  EXPECT_TRUE(again.leader);
  cache.Finish(again, Result<Document>(Status::NotFound("gone")), {});
}

TEST(TextCacheCoalesceTest, SearchesAndFetchesNeverShareAFlight) {
  // One flight table serves both kinds; the key's kind tag keeps a search
  // and a fetch with the same text apart.
  TextCache cache;
  TextCache::Ticket<Docids> search = cache.Begin<Docids>("x");
  TextCache::Ticket<Document> fetch = cache.Begin<Document>("x");
  EXPECT_TRUE(search.leader);
  EXPECT_TRUE(fetch.leader);
  EXPECT_EQ(cache.Stats().coalesced, 0u);
  cache.Finish(search, SearchResult({"d1"}), {});
  Document doc;
  doc.docid = "x";
  cache.Finish(fetch, Result<Document>(doc), {});
  EXPECT_TRUE(SearchHits(cache, "x"));
  EXPECT_TRUE(DocumentHits(cache, "x"));
  EXPECT_EQ(cache.Stats().entries, 2u);
}

// ----------------------------------------------- Decorator + resilience

TEST(CachingSourceTest, ReorderedConjunctionHitsWithoutTouchingTheMeter) {
  auto engine = MakeSmallEngine();
  RemoteTextSource metered(engine.get());
  auto cache = std::make_shared<TextCache>();
  CachingTextSource source(&metered, cache);

  TextQueryPtr q1 = Parse("title='belief' and author='smith'");
  TextQueryPtr q2 = Parse("author='smith' and title='belief'");
  SearchResult first = source.Search(*q1);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(metered.meter().invocations, 1u);

  CachingTextSource::Outcome outcome;
  SearchResult second = source.SearchWithOutcome(*q2, &outcome);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(outcome, CachingTextSource::Outcome::kHit);
  EXPECT_EQ(*first, *second);
  // The hit never reached the remote: no invocation, no short forms.
  EXPECT_EQ(metered.meter().invocations, 1u);

  const CacheActivity activity = source.activity();
  EXPECT_EQ(activity.search_hits, 1u);
  EXPECT_EQ(activity.search_misses, 1u);
  EXPECT_FALSE(activity.Empty());
}

TEST(CachingSourceTest, FetchHitsSkipLongFormCharges) {
  auto engine = MakeSmallEngine();
  RemoteTextSource metered(engine.get());
  auto cache = std::make_shared<TextCache>();
  CachingTextSource source(&metered, cache);

  Result<Document> first = source.Fetch("d1");
  Result<Document> second = source.Fetch("d1");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->docid, second->docid);
  EXPECT_EQ(first->fields.at("title"), second->fields.at("title"));
  EXPECT_EQ(metered.meter().long_docs, 1u);
  EXPECT_EQ(source.activity().fetch_hits, 1u);
}

TEST(CachingSourceTest, SessionProbeOutcomesRoundTripWithPinGuard) {
  auto engine = MakeSmallEngine();
  RemoteTextSource metered(engine.get());
  auto cache = std::make_shared<TextCache>();
  CachingTextSource source(&metered, cache, TenantId(), /*pinned_epoch=*/0);
  TextQueryPtr probe = Parse("title='belief' and author='kao'");

  EXPECT_FALSE(source.BeginProbe(*probe).has_value());
  source.RecordProbe(*probe, true);
  const std::optional<bool> warm = source.BeginProbe(*probe);
  ASSERT_TRUE(warm.has_value());
  EXPECT_TRUE(*warm);
  source.NoteProbeHit();
  EXPECT_EQ(source.activity().probe_hits, 1u);

  // A write touching the probe's terms erases the outcome, and a record
  // from a query pinned before the write must not land.
  cache->ApplyWrite({1, {"title\x1f" "belief"}, {}, false});
  EXPECT_FALSE(source.BeginProbe(*probe).has_value());
  source.RecordProbe(*probe, false);
  EXPECT_FALSE(source.BeginProbe(*probe).has_value());
  EXPECT_EQ(cache->Stats().stale_rejects, 1u);
}

/// A text source whose FIRST search blocks until Open() and fails the
/// first `fail_first` attempts — so a leader's retry sequence can be held
/// open while a follower coalesces onto its flight.
class GatedSource final : public TextSource {
 public:
  explicit GatedSource(int fail_first) : fail_first_(fail_first) {}

  Result<std::vector<std::string>> Search(const TextQuery&) const override {
    const int n = calls_.fetch_add(1);
    if (n == 0) {
      {
        std::lock_guard<std::mutex> lock(m_);
        entered_ = true;
      }
      cv_.notify_all();
      std::unique_lock<std::mutex> lock(m_);
      cv_.wait(lock, [this] { return open_; });
    }
    if (n < fail_first_) return Status::Unavailable("injected");
    return std::vector<std::string>{"d1"};
  }
  Result<Document> Fetch(const std::string& docid) const override {
    Document doc;
    doc.docid = docid;
    return doc;
  }
  size_t max_search_terms() const override { return 70; }
  size_t num_documents() const override { return 1; }

  void WaitEntered() const {
    std::unique_lock<std::mutex> lock(m_);
    cv_.wait(lock, [this] { return entered_; });
  }
  void Open() const {
    {
      std::lock_guard<std::mutex> lock(m_);
      open_ = true;
    }
    cv_.notify_all();
  }
  int calls() const { return calls_.load(); }

 private:
  const int fail_first_;
  mutable std::atomic<int> calls_{0};
  mutable std::mutex m_;
  mutable std::condition_variable cv_;
  mutable bool entered_ = false;
  mutable bool open_ = false;
};

TEST(CacheResilienceTest, CoalescedFollowerNeverDoubleRetriesOrTouchesBreaker) {
  // Two sessions share one cache; each has its OWN resilient layer (own
  // retries, own breaker) below the cache — the production layering. The
  // leader's first attempt fails and is retried; the follower coalesces
  // onto the leader's flight and must spend no attempts, no retries and no
  // breaker traffic of its own.
  auto cache = std::make_shared<TextCache>();
  ResilienceOptions ropts;
  ropts.retry.max_attempts = 3;
  ropts.sleeper = [](std::chrono::microseconds) {};  // No real backoff.

  GatedSource leader_inner(/*fail_first=*/1);
  ResilientTextSource leader_resilient(&leader_inner, ropts);
  CachingTextSource leader_source(&leader_resilient, cache);

  GatedSource follower_inner(/*fail_first=*/0);
  ResilientTextSource follower_resilient(&follower_inner, ropts);
  CachingTextSource follower_source(&follower_resilient, cache);

  TextQueryPtr query = Parse("title='belief'");
  CachingTextSource::Outcome leader_outcome{};
  SearchResult leader_result(Status::Unavailable(""));
  std::thread leader([&] {
    leader_result = leader_source.SearchWithOutcome(*query, &leader_outcome);
  });
  leader_inner.WaitEntered();  // The leader is mid-attempt-one.
  std::thread releaser([&] {
    // Unblock the leader only once the follower has joined its flight.
    while (cache->Stats().coalesced < 1) std::this_thread::yield();
    leader_inner.Open();
  });
  CachingTextSource::Outcome follower_outcome{};
  SearchResult follower_result =
      follower_source.SearchWithOutcome(*query, &follower_outcome);
  leader.join();
  releaser.join();

  ASSERT_TRUE(leader_result.ok()) << leader_result.status().ToString();
  ASSERT_TRUE(follower_result.ok()) << follower_result.status().ToString();
  EXPECT_EQ(leader_outcome, CachingTextSource::Outcome::kMiss);
  EXPECT_EQ(follower_outcome, CachingTextSource::Outcome::kCoalesced);
  EXPECT_EQ(*leader_result, *follower_result);

  // The leader retried once (attempt 1 failed, attempt 2 succeeded); the
  // follower issued nothing at all.
  EXPECT_EQ(leader_inner.calls(), 2);
  EXPECT_EQ(leader_resilient.stats().retries, 1u);
  EXPECT_EQ(follower_inner.calls(), 0);
  EXPECT_EQ(follower_resilient.stats().retries, 0u);
  EXPECT_EQ(follower_resilient.stats().breaker_rejections, 0u);
  ASSERT_NE(follower_resilient.breaker(), nullptr);
  EXPECT_EQ(follower_resilient.breaker()->times_opened(), 0u);
  EXPECT_EQ(follower_resilient.breaker()->state(),
            CircuitBreaker::State::kClosed);

  const CacheStats stats = cache->Stats();
  EXPECT_EQ(stats.coalesced, 1u);
  EXPECT_EQ(stats.insertions, 1u);
  // Afterwards the result is shared state: the follower session hits.
  CachingTextSource::Outcome again{};
  SearchResult hit = follower_source.SearchWithOutcome(*query, &again);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(again, CachingTextSource::Outcome::kHit);
  EXPECT_EQ(follower_inner.calls(), 0);
}

// ------------------------------------------- Cache on/off byte identity
//
// The grid the acceptance criteria name: across all six methods and
// parallelism {1, 4, 8} (and with content-keyed chaos layered under the
// cache), a COLD cache changes neither the rows nor one byte of the
// access-meter rendering, and a WARM cache reconciles exactly — every
// upstream operation it absorbed appears in exactly one hit counter.
//
// The corpus is built so no single query re-issues an identical operation
// (DocFetcher intentionally does not dedup across stages); the cold run
// asserts zero hits to keep the workload honest about that.

std::unique_ptr<TextEngine> MakeCacheCorpus() {
  auto engine = std::make_unique<TextEngine>();
  auto add = [&](Document d) {
    auto r = engine->AddDocument(std::move(d));
    TEXTJOIN_CHECK(r.ok(), "%s", r.status().ToString().c_str());
  };
  add(MakeEditedDoc("b1", "Belief update systems", "Alice", "Xavier"));
  add(MakeEditedDoc("b2", "Belief revision", "Bob", "Xavier"));
  add(MakeEditedDoc("b3", "Belief networks", "Alice", "Xavier"));
  add(MakeEditedDoc("b4", "Belief merging", "Carol", "Yolanda"));
  add(MakeEditedDoc("b5", "Query processing", "Alice", "Xavier"));
  add(MakeEditedDoc("b6", "Belief propagation", "Frank", "Yolanda"));
  return engine;
}

std::unique_ptr<Table> MakeScholarTable() {
  Schema schema;
  schema.AddColumn(Column{"scholar", "name", ValueType::kString});
  schema.AddColumn(Column{"scholar", "advisor", ValueType::kString});
  auto table = std::make_unique<Table>("scholar", schema);
  auto add = [&](const char* name, const char* advisor) {
    auto st = table->Insert(Row{Value::Str(name), Value::Str(advisor)});
    TEXTJOIN_CHECK(st.ok(), "%s", st.ToString().c_str());
  };
  // Two Alice rows with different advisors share a P+TS probe key; Zoe and
  // Dan match nothing (known-fail paths); Frank is not a scholar.
  add("Alice", "Xavier");
  add("Alice", "Walter");
  add("Bob", "Xavier");
  add("Carol", "Yolanda");
  add("Dan", "Yolanda");
  add("Zoe", "Walter");
  return table;
}

ForeignJoinSpec ScholarSpec(const Table& table) {
  ForeignJoinSpec spec;
  spec.left_schema = table.schema();
  spec.text.alias = "mercury";
  spec.text.fields = {"title", "author", "editor"};
  spec.selections = {{"belief", "title"}};
  spec.joins = {{"scholar.name", "author"}, {"scholar.advisor", "editor"}};
  return spec;
}

struct MethodCase {
  JoinMethodKind method;
  PredicateMask mask;
};
constexpr MethodCase kGridMethods[] = {
    {JoinMethodKind::kTS, 0},      {JoinMethodKind::kRTP, 0},
    {JoinMethodKind::kSJ, 0},      {JoinMethodKind::kSJRTP, 0},
    {JoinMethodKind::kPTS, 0b01},  {JoinMethodKind::kPRTP, 0b10},
};

struct GridRun {
  bool ok = false;
  std::vector<std::string> rows;  // Sorted renderings.
  AccessMeter meter;
  std::string meter_text;
  std::string degradation;
  CacheActivity activity;
};

GridRun RunGrid(TextEngine* engine, const Table& table, const MethodCase& mc,
                int parallelism, const ChaosOptions* chaos,
                std::shared_ptr<TextCache> cache,
                const TenantId& tenant = TenantId()) {
  ForeignJoinSpec spec = ScholarSpec(table);
  if (mc.method == JoinMethodKind::kSJ) {
    spec.left_columns_needed = false;
    spec.need_document_fields = false;
  }
  RemoteTextSource metered(engine);
  TextSource* source = &metered;
  std::unique_ptr<ChaosTextSource> flaky;
  if (chaos != nullptr) {
    flaky = std::make_unique<ChaosTextSource>(source, *chaos);
    source = flaky.get();
  }
  std::unique_ptr<CachingTextSource> caching;
  if (cache != nullptr) {
    caching = std::make_unique<CachingTextSource>(source, cache, tenant);
    source = caching.get();
  }
  std::unique_ptr<ThreadPool> pool;
  if (parallelism > 1) pool = std::make_unique<ThreadPool>(parallelism - 1);
  AtomicDegradation sink;
  FaultPolicy policy{
      chaos != nullptr ? FailureMode::kBestEffort : FailureMode::kFailFast,
      &sink};

  auto result = ExecuteForeignJoin(mc.method, spec, table.rows(), *source,
                                   mc.mask, pool.get(), policy);
  GridRun run;
  run.ok = result.ok();
  if (result.ok()) {
    run.rows.reserve(result->rows.size());
    for (const Row& row : result->rows) run.rows.push_back(RowToString(row));
    std::sort(run.rows.begin(), run.rows.end());
  }
  run.meter = metered.meter();
  run.meter_text = run.meter.ToString();
  run.degradation = sink.Snapshot().ToString();
  if (caching != nullptr) run.activity = caching->activity();
  return run;
}

class CacheIdentityTest : public ::testing::TestWithParam<int> {};

TEST_P(CacheIdentityTest, ColdIsByteIdenticalAndWarmReconcilesExactly) {
  const int parallelism = GetParam();
  auto engine = MakeCacheCorpus();
  auto table = MakeScholarTable();

  for (const bool with_chaos : {false, true}) {
    ChaosOptions chaos;
    chaos.seed = 11;
    chaos.content_keyed = true;  // Same ops fail at any schedule.
    chaos.search_failure_rate = 0.3;
    chaos.fetch_failure_rate = 0.3;
    const ChaosOptions* copt = with_chaos ? &chaos : nullptr;

    for (const MethodCase& mc : kGridMethods) {
      SCOPED_TRACE(std::string(JoinMethodName(mc.method)) +
                   " par=" + std::to_string(parallelism) +
                   (with_chaos ? " chaos" : ""));
      const GridRun off =
          RunGrid(engine.get(), *table, mc, parallelism, copt, nullptr);
      ASSERT_TRUE(off.ok);

      auto cache = std::make_shared<TextCache>();
      const GridRun cold =
          RunGrid(engine.get(), *table, mc, parallelism, copt, cache);
      const GridRun warm =
          RunGrid(engine.get(), *table, mc, parallelism, copt, cache);
      ASSERT_TRUE(cold.ok);
      ASSERT_TRUE(warm.ok);

      // Cold: rows AND meter byte-identical, and nothing was served from
      // the cache (self-check that the workload has no intra-query reuse).
      EXPECT_EQ(cold.rows, off.rows);
      EXPECT_EQ(cold.meter_text, off.meter_text);
      EXPECT_EQ(cold.degradation, off.degradation);
      EXPECT_EQ(cold.activity.TotalHits(), 0u) << cold.activity.ToString();
      EXPECT_EQ(cold.activity.coalesced, 0u);

      // Warm: same rows, and the meter reconciles operation-for-operation
      // — the meter counts upstream calls actually made; every absorbed
      // call is in exactly one hit counter.
      EXPECT_EQ(warm.rows, off.rows);
      EXPECT_EQ(warm.degradation, off.degradation);
      EXPECT_EQ(off.meter.invocations,
                warm.meter.invocations + warm.activity.search_hits +
                    warm.activity.probe_hits + warm.activity.coalesced)
          << "off=" << off.meter_text << " warm=" << warm.meter_text
          << " activity=" << warm.activity.ToString();
      EXPECT_EQ(off.meter.long_docs,
                warm.meter.long_docs + warm.activity.fetch_hits);
      EXPECT_LE(warm.meter.postings_processed, off.meter.postings_processed);
      EXPECT_LE(warm.meter.short_docs, off.meter.short_docs);
      EXPECT_EQ(warm.meter.relational_matches, off.meter.relational_matches);
      if (!with_chaos) {
        EXPECT_GT(warm.activity.TotalHits(), 0u)
            << "warm repeat produced no reuse: " << warm.activity.ToString();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Parallelism, CacheIdentityTest,
                         ::testing::Values(1, 4, 8));

// ------------------- Tenant partitions & scan resistance (DESIGN.md §15)
//
// Like the LRU tests above: recency and segment membership are
// positional, so no clock and no sleeps. Entry sizes are measured with a
// probe cache; all keys and docids below have equal lengths so every
// entry costs the same modeled bytes.

void PutSearchAs(TextCache& cache, const TenantId& tenant,
                 const std::string& key, std::vector<std::string> docids) {
  TextCache::Ticket<Docids> ticket = cache.Begin<Docids>(key, tenant);
  ASSERT_TRUE(ticket.leader) << "entry for '" << key << "' already present";
  cache.Finish(ticket, SearchResult(std::move(docids)), {});
}

size_t OneEntryBytes() {
  TextCache probe;
  PutSearch(probe, "p0", {"d1"});
  return probe.Stats().bytes;
}

TEST(TenantCacheTest, PartitionBudgetChargesTheTenantOverItsShare) {
  const size_t entry = OneEntryBytes();
  ASSERT_GT(entry, 0u);
  CacheOptions options;
  options.partition_by_tenant = true;
  options.byte_budget = 4 * entry + entry / 2;  // Four entries fit.
  options.max_entry_bytes = entry;
  TextCache cache(options);

  // Tenant a fills the whole cache; tenant b's FIRST insert must evict
  // from a's partition (most bytes per unit weight), not from b's.
  for (const char* key : {"a0", "a1", "a2", "a3"}) {
    PutSearchAs(cache, "a", key, {"d1"});
  }
  PutSearchAs(cache, "b", "b0", {"d1"});

  EXPECT_FALSE(SearchHits(cache, "a0", "a")) << "a's LRU entry survives";
  EXPECT_TRUE(SearchHits(cache, "a1", "a"));
  EXPECT_TRUE(SearchHits(cache, "b0", "b"));
  const CacheStats stats = cache.Stats();
  EXPECT_LE(stats.bytes, options.byte_budget);
  EXPECT_EQ(stats.partitions.at("a").evictions, 1u);
  EXPECT_EQ(stats.partitions.at("b").evictions, 0u);
  EXPECT_EQ(stats.partitions.at("b").entries, 1u);

  // Lookups stay partition-blind: one corpus, one truth — b may hit an
  // entry a inserted (insertion charged the inserter, hits help everyone).
  EXPECT_TRUE(SearchHits(cache, "a1", "b"));
}

TEST(TenantCacheTest, WeightedSharesPickTheEvictionVictim) {
  const size_t entry = OneEntryBytes();
  CacheOptions options;
  options.partition_by_tenant = true;
  options.byte_budget = 4 * entry + entry / 2;
  options.max_entry_bytes = entry;
  options.tenant_weights["a"] = 3.0;  // b keeps the default weight 1.
  TextCache cache(options);

  for (const char* key : {"a0", "a1", "a2"}) {
    PutSearchAs(cache, "a", key, {"d1"});
  }
  PutSearchAs(cache, "b", "b0", {"d1"});
  PutSearchAs(cache, "b", "b1", {"d1"});  // Fifth entry: someone loses.

  // a holds 3 entries at weight 3 (1 per weight); b holds 2 at weight 1
  // (2 per weight) — the victim is b's own oldest entry.
  EXPECT_FALSE(SearchHits(cache, "b0", "b"));
  EXPECT_TRUE(SearchHits(cache, "b1", "b"));
  for (const char* key : {"a0", "a1", "a2"}) {
    EXPECT_TRUE(SearchHits(cache, key, "a")) << key;
  }
  const CacheStats stats = cache.Stats();
  EXPECT_EQ(stats.partitions.at("b").evictions, 1u);
  EXPECT_EQ(stats.partitions.at("a").evictions, 0u);
}

TEST(TenantCacheTest, ProtectedSegmentResistsAScanPlainLruDoesNot) {
  const size_t entry = OneEntryBytes();
  const auto scan = [&](double protected_fraction) {
    CacheOptions options;
    options.byte_budget = 4 * entry + entry / 2;
    options.max_entry_bytes = entry;
    options.protected_fraction = protected_fraction;
    auto cache = std::make_unique<TextCache>(options);
    PutSearchAs(*cache, TenantId(), "h0", {"d1"});
    // The repeat hit is the promotion ticket: h0 moves to the protected
    // segment (when there is one) and a one-pass scan cannot touch it.
    EXPECT_TRUE(SearchHits(*cache, "h0"));
    for (const char* key : {"c0", "c1", "c2", "c3", "c4", "c5", "c6", "c7"}) {
      PutSearchAs(*cache, TenantId(), key, {"d1"});
    }
    return cache;
  };

  {  // SLRU: the scan churns probation; the proven-hot entry survives.
    auto cache = scan(0.5);
    EXPECT_TRUE(SearchHits(*cache, "h0"));
    EXPECT_TRUE(SearchHits(*cache, "c7"));
    EXPECT_FALSE(SearchHits(*cache, "c0"));
    const CacheStats stats = cache->Stats();
    EXPECT_GT(stats.partitions.at("").protected_bytes, 0u);
    EXPECT_LE(stats.bytes, 4 * entry + entry / 2);
  }
  {  // protected_fraction 0 is the legacy plain LRU: the scan flushes h0.
    auto cache = scan(0.0);
    EXPECT_FALSE(SearchHits(*cache, "h0"));
    EXPECT_EQ(cache->Stats().partitions.at("").protected_bytes, 0u);
  }
}

TEST(TenantCacheTest, ProtectedOverflowDemotesBackToProbation) {
  const size_t entry = OneEntryBytes();
  CacheOptions options;
  options.byte_budget = 4 * entry + entry / 2;
  options.max_entry_bytes = entry;
  options.protected_fraction = 0.25;  // Room for ONE protected entry.
  TextCache cache(options);

  PutSearchAs(cache, TenantId(), "h0", {"d1"});
  PutSearchAs(cache, TenantId(), "h1", {"d1"});
  EXPECT_TRUE(SearchHits(cache, "h0"));  // h0 protected.
  EXPECT_TRUE(SearchHits(cache, "h1"));  // h1 displaces.

  // Overflow demotes, it does not drop: both entries are still resident,
  // and exactly ONE of them (h1) holds the single protected slot — so h0
  // is back in probation.
  const CacheStats after = cache.Stats();
  EXPECT_EQ(after.entries, 2u);
  EXPECT_EQ(after.partitions.at("").protected_bytes, entry);
  EXPECT_EQ(after.evictions, 0u);

  // A probation scan then flushes the demoted h0 while the protected
  // resident h1 is untouchable — the segments really are separate queues.
  for (const char* key : {"c0", "c1", "c2", "c3", "c4", "c5"}) {
    PutSearchAs(cache, TenantId(), key, {"d1"});
  }
  EXPECT_FALSE(SearchHits(cache, "h0"));
  EXPECT_TRUE(SearchHits(cache, "h1"));
}

/// Two tenants, one partitioned cache, the full method grid: tenant a
/// runs cold (byte-identical to uncached), tenant b then runs the same
/// query warm — rows identical and the meter reconciles hit-for-hit
/// across the partition boundary.
class TenantCacheGridTest : public ::testing::TestWithParam<int> {};

TEST_P(TenantCacheGridTest, ColdTenantWarmsTheNeighborExactly) {
  const int parallelism = GetParam();
  auto engine = MakeCacheCorpus();
  auto table = MakeScholarTable();

  for (const MethodCase& mc : kGridMethods) {
    SCOPED_TRACE(std::string(JoinMethodName(mc.method)) +
                 " par=" + std::to_string(parallelism));
    const GridRun off =
        RunGrid(engine.get(), *table, mc, parallelism, nullptr, nullptr);
    ASSERT_TRUE(off.ok);

    CacheOptions options;
    options.partition_by_tenant = true;
    options.protected_fraction = 0.3;
    auto cache = std::make_shared<TextCache>(options);
    const GridRun cold = RunGrid(engine.get(), *table, mc, parallelism,
                                 nullptr, cache, "a");
    const GridRun warm = RunGrid(engine.get(), *table, mc, parallelism,
                                 nullptr, cache, "b");
    ASSERT_TRUE(cold.ok);
    ASSERT_TRUE(warm.ok);

    // Cold tenant: byte-identical to the uncached run.
    EXPECT_EQ(cold.rows, off.rows);
    EXPECT_EQ(cold.meter_text, off.meter_text);
    EXPECT_EQ(cold.activity.TotalHits(), 0u) << cold.activity.ToString();

    // Warm tenant: same rows; every absorbed call is in exactly one hit
    // counter even though a different tenant paid for the entries.
    EXPECT_EQ(warm.rows, off.rows);
    EXPECT_EQ(off.meter.invocations,
              warm.meter.invocations + warm.activity.search_hits +
                  warm.activity.probe_hits + warm.activity.coalesced)
        << "off=" << off.meter_text << " warm=" << warm.meter_text
        << " activity=" << warm.activity.ToString();
    EXPECT_EQ(off.meter.long_docs,
              warm.meter.long_docs + warm.activity.fetch_hits);
    EXPECT_GT(warm.activity.TotalHits(), 0u)
        << "warm tenant produced no cross-tenant reuse";

    // Insertions were charged to the cold tenant's partition; the warm
    // tenant never had to build one of its own.
    const CacheStats stats = cache->Stats();
    ASSERT_EQ(stats.partitions.count("a"), 1u);
    EXPECT_GT(stats.partitions.at("a").insertions, 0u);
    EXPECT_EQ(stats.partitions.count("b"), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Parallelism, TenantCacheGridTest,
                         ::testing::Values(1, 4, 8));

// ------------------------------------------------- Service integration

std::unique_ptr<Catalog> MakeStudentCatalog() {
  auto catalog = std::make_unique<Catalog>();
  auto st = catalog->AddTable(MakeStudentTable());
  TEXTJOIN_CHECK(st.ok(), "%s", st.ToString().c_str());
  return catalog;
}

const char* const kServiceSql =
    "select student.name, mercury.docid, mercury.title from student, mercury "
    "where 'belief' in mercury.title and student.name in mercury.author";

TEST(CacheServiceTest, WarmQueriesReportActivityAndRenderCacheLines) {
  auto engine = MakeSmallEngine();
  auto catalog = MakeStudentCatalog();
  FederationService::Options options;
  options.text = MercuryDecl();
  options.chain.cache.emplace();
  FederationService service(catalog.get(), engine.get(), options);

  auto cold = service.Run(kServiceSql);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->cache.TotalHits(), 0u);
  EXPECT_GT(cold->meter_delta.invocations, 0u);

  auto warm = service.Run(kServiceSql);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_GT(warm->cache.TotalHits(), 0u);
  // Per-query reconciliation at the service boundary.
  EXPECT_EQ(cold->meter_delta.invocations,
            warm->meter_delta.invocations + warm->cache.search_hits +
                warm->cache.probe_hits + warm->cache.coalesced);
  EXPECT_EQ(cold->meter_delta.long_docs,
            warm->meter_delta.long_docs + warm->cache.fetch_hits);

  std::multiset<std::string> cold_rows, warm_rows;
  for (const Row& row : cold->rows.rows) cold_rows.insert(RowToString(row));
  for (const Row& row : warm->rows.rows) warm_rows.insert(RowToString(row));
  EXPECT_EQ(cold_rows, warm_rows);

  // ExplainAnalyze renders "| cache" lines exactly when a cache was in
  // play (cache-off output stays byte-identical to the pre-cache repo).
  const std::string analyzed = ExplainAnalyze(*warm);
  EXPECT_NE(analyzed.find("| cache hits="), std::string::npos) << analyzed;

  FederationService::Options plain_options;
  plain_options.text = MercuryDecl();
  FederationService plain(catalog.get(), engine.get(), plain_options);
  auto uncached = plain.Run(kServiceSql);
  ASSERT_TRUE(uncached.ok());
  EXPECT_TRUE(uncached->cache.Empty());
  const std::string plain_analyzed = ExplainAnalyze(*uncached);
  EXPECT_EQ(plain_analyzed.find("| cache"), std::string::npos)
      << plain_analyzed;
}

TEST(CacheServiceTest, WriterInsertReachesTheNextWarmQuery) {
  // A live single backend: the writer holds the service's cache, so a
  // matching insert erases the warm entries it touches and the next query
  // reads the new document.
  auto engine = MakeSmallEngine();
  auto catalog = MakeStudentCatalog();
  auto cache = std::make_shared<TextCache>();
  LiveCorpus live;
  EpochClock clock;
  CorpusWriter writer({{&live}}, &clock, cache);
  for (const Document& doc : engine->documents()) {
    ASSERT_TRUE(writer.Seed(doc).ok());
  }
  FederationService::Options options;
  options.text = MercuryDecl();
  options.topology.shards.push_back({{{&live, nullptr}}});
  options.topology.partitioner = writer.PartitionFn();
  options.topology.global_ordinal = writer.OrdinalFn();
  options.shared_cache = cache;
  options.live.emplace();
  options.live->clock = &clock;
  FederationService service(catalog.get(), nullptr, options);

  ASSERT_TRUE(service.Run(kServiceSql).ok());
  auto warm = service.Run(kServiceSql);
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(warm->cache.TotalHits(), 0u);
  EXPECT_EQ(cache->Stats().invalidations, 0u);

  ASSERT_TRUE(
      writer.Insert(testing::MakeDoc("d7", "Belief networks for retrieval",
                                     {"Yan"}))
          .ok());
  EXPECT_EQ(cache->Stats().invalidations, 1u);
  EXPECT_GT(cache->Stats().surgical_invalidations, 0u);
  auto fresh = service.Run(kServiceSql);
  ASSERT_TRUE(fresh.ok());
  bool saw_new_doc = false;
  for (const Row& row : fresh->rows.rows) {
    if (RowToString(row).find("d7") != std::string::npos) saw_new_doc = true;
  }
  EXPECT_TRUE(saw_new_doc);
}

// ---------------------------------------------- Multi-session stress
//
// Run under -DTEXTJOIN_SANITIZE=thread this is the TSan leg the issue
// asks for: many concurrent sessions, one shared cache, chaos UNDER the
// cache (below resilience), coalesced flights racing with invalidation-
// free steady state. Functional asserts keep it meaningful without TSan:
// complete executions must equal the fault-free reference, and the
// resilience accounting must reconcile.

TEST(CacheStressTest, ManySessionsOneSharedCacheUnderChaos) {
  auto engine = MakeSmallEngine();
  auto catalog = MakeStudentCatalog();
  auto shared_cache = std::make_shared<TextCache>();

  const std::vector<std::string> sqls = {
      kServiceSql,
      "select student.name, mercury.docid from student, mercury "
      "where student.year > 2 and student.name in mercury.author",
      "select student.name, mercury.docid, mercury.title from student, "
      "mercury where 'belief' in mercury.title and student.name in "
      "mercury.author and student.advisor in mercury.author",
  };

  // Fault-free reference rows per statement.
  std::vector<std::multiset<std::string>> reference;
  {
    FederationService::Options options;
    options.text = MercuryDecl();
    FederationService clean(catalog.get(), engine.get(), options);
    for (const std::string& sql : sqls) {
      auto outcome = clean.Run(sql);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      std::multiset<std::string> rows;
      for (const Row& row : outcome->rows.rows) rows.insert(RowToString(row));
      reference.push_back(std::move(rows));
    }
  }

  constexpr int kSessions = 3;
  constexpr int kThreads = 6;
  constexpr int kQueriesPerThread = 8;
  std::vector<std::unique_ptr<FederationService>> sessions;
  sessions.reserve(kSessions);
  for (int s = 0; s < kSessions; ++s) {
    FederationService::Options options;
    options.text = MercuryDecl();
    options.parallelism = 4;
    options.shared_cache = shared_cache;
    options.chain.resilience.emplace();
    options.chain.resilience->retry.max_attempts = 4;
    options.chain.resilience->retry.jitter_seed = 100 + static_cast<uint64_t>(s);
    options.chain.resilience->sleeper = [](std::chrono::microseconds) {};
    // Keep the breaker wired in (its accounting must stay clean under the
    // shared cache) but out of statistical reach of 0.25-rate chaos: a
    // trip would make absorbed faults order-dependent and the test flaky.
    options.chain.resilience->breaker.failure_threshold = 64;
    options.failure_mode = FailureMode::kBestEffort;
    ChaosOptions chaos;
    chaos.seed = 1000 + static_cast<uint64_t>(s);
    chaos.search_failure_rate = 0.25;
    chaos.fetch_failure_rate = 0.25;
    options.execution_source_decorator =
        [chaos](TextSource* inner) -> std::unique_ptr<TextSource> {
      return std::make_unique<ChaosTextSource>(inner, chaos);
    };
    sessions.push_back(std::make_unique<FederationService>(
        catalog.get(), engine.get(), options));
  }

  std::atomic<int> failures{0};
  std::atomic<int> incomplete{0};
  std::atomic<uint64_t> hits{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kQueriesPerThread; ++i) {
        const size_t pick = static_cast<size_t>(t + i);
        FederationService& session = *sessions[pick % kSessions];
        const size_t which = pick % sqls.size();
        auto outcome = session.Run(sqls[which]);
        if (!outcome.ok()) {
          // Best-effort + retries absorb chaos; a terminal failure is a bug.
          failures.fetch_add(1);
          continue;
        }
        hits.fetch_add(outcome->cache.TotalHits() +
                       outcome->cache.coalesced);
        if (!outcome->degradation.complete) {
          incomplete.fetch_add(1);
          continue;
        }
        // A complete execution — even one that spent retries or was partly
        // served from the shared cache — must equal the clean reference.
        std::multiset<std::string> rows;
        for (const Row& row : outcome->rows.rows) {
          rows.insert(RowToString(row));
        }
        EXPECT_EQ(rows, reference[which]) << sqls[which];
      }
    });
  }
  for (std::thread& t : threads) t.join();

  EXPECT_EQ(failures.load(), 0);
  // Most executions complete (retries absorb 0.25-rate chaos), and the
  // shared cache sees real cross-session reuse.
  EXPECT_LT(incomplete.load(), kThreads * kQueriesPerThread / 2);
  EXPECT_GT(hits.load(), 0u);

  const CacheStats stats = shared_cache->Stats();
  EXPECT_GT(stats.search_hits + stats.fetch_hits + stats.probe_hits, 0u);
  EXPECT_EQ(stats.invalidations, 0u);  // Corpus never changed.
  // Every session's breaker stayed healthy: chaos at these rates never
  // produces 5 consecutive unretried failures through the retry layer.
  for (const auto& session : sessions) {
    ASSERT_NE(session->breaker(), nullptr);
    EXPECT_EQ(session->breaker()->state(), CircuitBreaker::State::kClosed);
    EXPECT_EQ(session->breaker()->times_opened(), 0u);
  }
}

}  // namespace
}  // namespace textjoin
