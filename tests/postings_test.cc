#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/random.h"
#include "tests/support/reference_postings.h"
#include "text/postings.h"

/// \file
/// Edge cases of the block-compressed posting layout (DESIGN.md §14):
/// empty lists, single-doc lists, lists straddling the 128-doc block
/// boundary, skip-boundary intersections, and duplicate appends. The
/// broad randomized equivalence against the flat reference merges
/// (tests/support) lives here too; engine-level differential coverage is
/// in engine_fuzz_test.cc.

namespace textjoin {
namespace {

constexpr uint32_t kB = BlockPostings::kBlockDocs;  // 128

/// Builds a flat list over the given docids with synthetic positions
/// (doc*3 and doc*3+7 — two positions so position plumbing is exercised).
PostingList ListOf(const std::vector<DocNum>& docs) {
  PostingList list;
  for (DocNum d : docs) {
    list.push_back({d, {static_cast<TokenPos>(d * 3),
                        static_cast<TokenPos>(d * 3 + 7)}});
  }
  return list;
}

/// Round-trips `list` through the block layout and back.
PostingList Roundtrip(const PostingList& list) {
  return Materialize(BlockPostingsFromList(list));
}

void ExpectEqualLists(const PostingList& got, const PostingList& want,
                      const std::string& label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].doc, want[i].doc) << label << " posting " << i;
    EXPECT_EQ(got[i].positions, want[i].positions) << label << " posting "
                                                   << i;
  }
}

PostingList MaterializeView(PostingsView v) {
  PostingList out;
  for (uint32_t i = 0; i < v.size; ++i) {
    Posting p;
    p.doc = v.docs[i];
    const auto pos = v.PositionsOf(i);
    p.positions.assign(pos.begin(), pos.end());
    out.push_back(std::move(p));
  }
  return out;
}

// ----------------------------------------------------------- Round-trips

TEST(BlockPostingsTest, EmptyList) {
  BlockPostings empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.num_positions(), 0u);
  EXPECT_TRUE(Materialize(empty).empty());

  BlockPostings::Cursor cur(empty);
  EXPECT_TRUE(cur.at_end());
  EXPECT_FALSE(cur.SkipTo(0));

  Arena arena;
  PostingsView view = DecodeBlockPostings(empty, arena);
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.num_positions(), 0u);
}

TEST(BlockPostingsTest, EmptyListDecodesIntoAnyDestination) {
  // An empty list writes nothing, whether the caller's buffer is null (an
  // empty std::vector's data()) or real; neither call may touch memory.
  BlockPostings empty;
  empty.DecodeDocsInto(nullptr);
  DocNum sentinel = 7;
  empty.DecodeDocsInto(&sentinel);
  EXPECT_EQ(sentinel, 7u);
}

TEST(BlockPostingsTest, SingleDoc) {
  const PostingList one = ListOf({42});
  ExpectEqualLists(Roundtrip(one), one, "single doc");

  BlockPostings block = BlockPostingsFromList(one);
  EXPECT_EQ(block.first_doc(), 42u);
  EXPECT_EQ(block.last_doc(), 42u);
  BlockPostings::Cursor cur(block);
  EXPECT_FALSE(cur.at_end());
  EXPECT_EQ(cur.doc(), 42u);
  EXPECT_TRUE(cur.SkipTo(42));
  EXPECT_EQ(cur.doc(), 42u);
  EXPECT_FALSE(cur.SkipTo(43));
  EXPECT_TRUE(cur.at_end());
}

TEST(BlockPostingsTest, BlockBoundarySizes) {
  // One below, exactly at, one above, and two full blocks: the seal path
  // must produce identical docs and positions in every case.
  for (uint32_t n : {kB - 1, kB, kB + 1, 2 * kB, 2 * kB + 5}) {
    std::vector<DocNum> docs;
    for (uint32_t i = 0; i < n; ++i) docs.push_back(i * 7 + 3);
    const PostingList list = ListOf(docs);
    ExpectEqualLists(Roundtrip(list), list,
                     "n=" + std::to_string(n));
  }
}

TEST(BlockPostingsTest, WideDeltasPickWiderWidths) {
  // Deltas spanning the 1-, 2- and 4-byte FOR widths inside one list.
  std::vector<DocNum> docs;
  DocNum d = 0;
  for (uint32_t i = 0; i < 3 * kB; ++i) {
    d += (i < kB) ? 3 : (i < 2 * kB) ? 1000 : 100000;
    docs.push_back(d);
  }
  const PostingList list = ListOf(docs);
  ExpectEqualLists(Roundtrip(list), list, "mixed widths");
}

TEST(BlockPostingsTest, DuplicateAppendsMergeIntoOneDoc) {
  // The index appends one (doc, pos) per occurrence; repeated docs extend
  // the same posting. Append reports whether a NEW doc entry started —
  // that is what TotalPostings counts.
  BlockPostings block;
  EXPECT_TRUE(block.Append(5, 1));
  EXPECT_FALSE(block.Append(5, 9));
  EXPECT_FALSE(block.Append(5, 12));
  EXPECT_TRUE(block.Append(8, 2));
  EXPECT_EQ(block.size(), 2u);
  const PostingList got = Materialize(block);
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].positions, (std::vector<TokenPos>{1, 9, 12}));
  EXPECT_EQ(got[1].positions, (std::vector<TokenPos>{2}));
}

// ------------------------------------------------------------ Cursor

TEST(BlockPostingsCursorTest, SkipToLandsOnBlockBoundaries) {
  // Docs 0, 10, 20, ... across 4 blocks; skip targets chosen to land
  // exactly on block-first, block-last, and between-blocks docids.
  std::vector<DocNum> docs;
  for (uint32_t i = 0; i < 4 * kB; ++i) docs.push_back(i * 10);
  BlockPostings block = BlockPostingsFromList(ListOf(docs));

  BlockPostings::Cursor cur(block);
  ASSERT_TRUE(cur.SkipTo((kB - 1) * 10));  // Last doc of block 0.
  EXPECT_EQ(cur.doc(), (kB - 1) * 10);
  ASSERT_TRUE(cur.SkipTo(kB * 10));  // First doc of block 1.
  EXPECT_EQ(cur.doc(), kB * 10);
  ASSERT_TRUE(cur.SkipTo(kB * 10 + 1));  // Between entries: next doc.
  EXPECT_EQ(cur.doc(), kB * 10 + 10);
  ASSERT_TRUE(cur.SkipTo(3 * kB * 10 + 5));  // Into the tail... or block 3.
  EXPECT_EQ(cur.doc(), 3 * kB * 10 + 10);
  EXPECT_FALSE(cur.SkipTo((4 * kB) * 10));  // Past the end.
  EXPECT_TRUE(cur.at_end());
}

TEST(BlockPostingsCursorTest, NextWalksEveryDocAcrossRegions) {
  std::vector<DocNum> docs;
  for (uint32_t i = 0; i < 2 * kB + 17; ++i) docs.push_back(i * 2 + 1);
  BlockPostings block = BlockPostingsFromList(ListOf(docs));
  BlockPostings::Cursor cur(block);
  for (size_t i = 0; i < docs.size(); ++i) {
    ASSERT_FALSE(cur.at_end());
    EXPECT_EQ(cur.doc(), docs[i]) << i;
    EXPECT_EQ(cur.index(), i);
    cur.Next();
  }
  EXPECT_TRUE(cur.at_end());
}

// -------------------------------------------------- Kernels vs reference

/// Random sorted docid set with clustered and sparse stretches, so
/// intersections exercise both the galloping and the block-skip paths.
std::vector<DocNum> RandomDocs(Rng& rng, size_t max_count) {
  std::vector<DocNum> docs;
  DocNum d = 0;
  const size_t n = static_cast<size_t>(rng.Uniform(0, max_count));
  for (size_t i = 0; i < n; ++i) {
    d += rng.Bernoulli(0.7) ? static_cast<DocNum>(rng.Uniform(1, 4))
                            : static_cast<DocNum>(rng.Uniform(50, 500));
    docs.push_back(d);
  }
  return docs;
}

PostingList RandomList(Rng& rng, size_t max_count) {
  PostingList list;
  for (DocNum d : RandomDocs(rng, max_count)) {
    Posting p;
    p.doc = d;
    TokenPos pos = 0;
    const int64_t k = rng.Uniform(1, 3);
    for (int64_t i = 0; i < k; ++i) {
      pos += static_cast<TokenPos>(rng.Uniform(1, 9));
      p.positions.push_back(pos);
    }
    list.push_back(std::move(p));
  }
  return list;
}

TEST(BlockKernelsTest, IntersectMatchesReferenceOnRandomLists) {
  Rng rng(2024);
  for (int iter = 0; iter < 60; ++iter) {
    const PostingList a = RandomList(rng, 400);
    const PostingList b = RandomList(rng, 400);
    MergeCounter counter;
    const PostingList want = IntersectLists(a, b, &counter);

    const BlockPostings ba = BlockPostingsFromList(a);
    const BlockPostings bb = BlockPostingsFromList(b);
    Arena arena;
    ExpectEqualLists(
        MaterializeView(IntersectBlocks(ba, bb, arena).View()), want,
        "block x block");
    PostingsView va = DecodeBlockPostings(ba, arena);
    PostingsView vb = DecodeBlockPostings(bb, arena);
    ExpectEqualLists(
        MaterializeView(IntersectViewBlock(va, bb, arena).View()), want,
        "view x block");
    ExpectEqualLists(MaterializeView(IntersectViews(va, vb, arena).View()),
                     want, "view x view");
  }
}

TEST(BlockKernelsTest, UnionDifferencePhraseProximityMatchReference) {
  Rng rng(777);
  for (int iter = 0; iter < 60; ++iter) {
    const PostingList a = RandomList(rng, 250);
    const PostingList b = RandomList(rng, 250);
    MergeCounter counter;
    Arena arena;
    // A decoded view borrows positions from the BlockPostings it came
    // from, so the block lists must outlive every use of the views.
    const BlockPostings ba = BlockPostingsFromList(a);
    const BlockPostings bb = BlockPostingsFromList(b);
    const PostingsView va = DecodeBlockPostings(ba, arena);
    const PostingsView vb = DecodeBlockPostings(bb, arena);
    ExpectEqualLists(MaterializeView(va), a, "decode a");
    ExpectEqualLists(MaterializeView(vb), b, "decode b");
    ExpectEqualLists(MaterializeView(UnionViews(va, vb, arena).View()),
                     UnionLists(a, b, &counter), "union");
    ExpectEqualLists(MaterializeView(DifferenceViews(va, vb, arena).View()),
                     DifferenceLists(a, b, &counter), "difference");
    ExpectEqualLists(
        MaterializeView(PhraseAdjacentViews(va, vb, arena).View()),
        PhraseAdjacent(a, b, &counter), "phrase");
    for (TokenPos dist : {0u, 1u, 3u, 10u}) {
      ExpectEqualLists(
          MaterializeView(ProximityViews(va, vb, dist, arena).View()),
          ProximityMerge(a, b, dist, &counter),
          "proximity d=" + std::to_string(dist));
    }
  }
}

TEST(BlockKernelsTest, SkipBoundaryIntersection) {
  // `a` holds exactly the block-boundary docs of `b` (first and last doc
  // of each sealed block), so every SkipTo lands on a boundary.
  std::vector<DocNum> dense;
  for (uint32_t i = 0; i < 4 * kB; ++i) dense.push_back(i * 5);
  std::vector<DocNum> sparse;
  for (uint32_t blk = 0; blk < 4; ++blk) {
    sparse.push_back((blk * kB) * 5);            // Block-first doc.
    sparse.push_back((blk * kB + kB - 1) * 5);   // Block-last (skip entry).
  }
  const PostingList a = ListOf(sparse);
  const PostingList b = ListOf(dense);
  MergeCounter counter;
  const PostingList want = IntersectLists(a, b, &counter);
  ASSERT_EQ(want.size(), sparse.size());

  Arena arena;
  const BlockPostings ba = BlockPostingsFromList(a);
  const BlockPostings bb = BlockPostingsFromList(b);
  ExpectEqualLists(MaterializeView(IntersectBlocks(ba, bb, arena).View()),
                   want, "boundary block x block");
  ExpectEqualLists(MaterializeView(IntersectBlocks(bb, ba, arena).View()),
                   IntersectLists(b, a, &counter), "boundary reversed");
  ExpectEqualLists(
      MaterializeView(
          IntersectViewBlock(DecodeBlockPostings(ba, arena), bb, arena)
              .View()),
      want, "boundary view x block");
}

TEST(BlockKernelsTest, EmptyOperands) {
  Arena arena;
  const BlockPostings empty;
  const BlockPostings one = BlockPostingsFromList(ListOf({3, 9}));
  EXPECT_EQ(IntersectBlocks(empty, one, arena).size, 0u);
  EXPECT_EQ(IntersectBlocks(one, empty, arena).size, 0u);
  PostingsView ev = EmptyPostingsView();
  PostingsView ov = DecodeBlockPostings(one, arena);
  EXPECT_EQ(IntersectViews(ev, ov, arena).size, 0u);
  EXPECT_EQ(UnionViews(ev, ev, arena).size, 0u);
  ExpectEqualLists(MaterializeView(UnionViews(ev, ov, arena).View()),
                   ListOf({3, 9}), "union with empty");
  ExpectEqualLists(MaterializeView(DifferenceViews(ov, ev, arena).View()),
                   ListOf({3, 9}), "difference with empty");
  EXPECT_EQ(PhraseAdjacentViews(ev, ov, arena).size, 0u);
  EXPECT_EQ(ProximityViews(ov, ev, 5, arena).size, 0u);
}

}  // namespace
}  // namespace textjoin
