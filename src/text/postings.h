#ifndef TEXTJOIN_TEXT_POSTINGS_H_
#define TEXTJOIN_TEXT_POSTINGS_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/arena.h"
#include "text/document.h"

/// \file
/// Positional posting lists in the vectorized block layout (DESIGN.md §14):
/// BlockPostings stores docids in fixed 128-doc blocks of
/// frame-of-reference byte-packed deltas with a per-block max-docid skip
/// entry, positions in one flat array. Merges run over structure-of-arrays
/// views (PostingsView / FlatPostings) whose memory lives in a per-query
/// Arena, and conjunctions intersect by galloping + block-max skipping
/// without decoding blocks that cannot match. Every merge is linear in its
/// inputs, as the paper's text-system model assumes (Section 2.1).

namespace textjoin {

/// Token position within a document field. Values of a multi-valued field
/// are separated by a large gap so phrases cannot match across values.
using TokenPos = uint32_t;

/// Gap between consecutive values of a multi-valued field in position space.
inline constexpr TokenPos kFieldValuePositionGap = 1u << 16;

/// Read-only structure-of-arrays view of a decoded posting list: `size`
/// docs in `docs`, and doc i's positions at
/// positions[pos_begin[i] .. pos_begin[i+1]). `pos_begin` has size+1
/// entries. The backing memory is owned elsewhere (an Arena, or a
/// BlockPostings' own flat arrays).
struct PostingsView {
  const DocNum* docs = nullptr;
  const uint32_t* pos_begin = nullptr;
  const TokenPos* positions = nullptr;
  uint32_t size = 0;

  bool empty() const { return size == 0; }
  uint32_t num_positions() const { return size == 0 ? 0 : pos_begin[size]; }
  std::span<const TokenPos> PositionsOf(uint32_t i) const {
    return {positions + pos_begin[i], positions + pos_begin[i + 1]};
  }
};

/// The empty view (valid pos_begin sentinel, zero docs).
PostingsView EmptyPostingsView();

/// Arena-backed mutable SoA posting list under construction. Created with
/// exact capacity upper bounds; append-only.
struct FlatPostings {
  DocNum* docs = nullptr;
  uint32_t* pos_begin = nullptr;  ///< max_docs+1 entries once sealed.
  TokenPos* positions = nullptr;
  uint32_t size = 0;
  uint32_t num_positions = 0;

  /// Allocates capacity for `max_docs` docs and `max_positions` positions.
  static FlatPostings Make(Arena& arena, uint32_t max_docs,
                           uint32_t max_positions);

  void AppendDoc(DocNum doc) {
    docs[size] = doc;
    pos_begin[size] = num_positions;
    ++size;
  }
  void AppendPosition(TokenPos pos) { positions[num_positions++] = pos; }
  void AppendPositions(const TokenPos* pos, uint32_t count);

  bool empty() const { return size == 0; }

  /// Seals the pos_begin sentinel and returns the read view. May be called
  /// repeatedly (e.g. after more appends).
  PostingsView View();
};

/// Block-compressed immutable-after-build posting list. Docids are grouped
/// into blocks of kBlockDocs; a sealed block stores its first docid raw
/// plus kBlockDocs-1 deltas frame-of-reference packed at the block's byte
/// width (1, 2 or 4), and its per-block directory entry carries the block's
/// last (max) docid — the skip entry intersection uses to discard whole
/// blocks without decoding. The most recent <kBlockDocs docs stay in an
/// uncompressed tail. Positions live in one flat array shared by every
/// block, addressed by per-doc pos_begin offsets (so a decoded view borrows
/// them with zero copying).
class BlockPostings {
 public:
  static constexpr uint32_t kBlockDocs = 128;

  BlockPostings() = default;
  BlockPostings(BlockPostings&&) = default;
  BlockPostings& operator=(BlockPostings&&) = default;
  BlockPostings(const BlockPostings&) = delete;
  BlockPostings& operator=(const BlockPostings&) = delete;

  /// Appends one (doc, position) occurrence. Docs must arrive in
  /// non-decreasing order; positions within a doc in ascending order.
  /// Returns true when this call started a new doc entry.
  bool Append(DocNum doc, TokenPos pos);

  uint32_t size() const { return num_docs_; }
  bool empty() const { return num_docs_ == 0; }
  uint64_t num_positions() const { return positions_.size(); }
  DocNum first_doc() const;
  DocNum last_doc() const;

  /// Per-doc position offsets (size()+1 entries) and the flat position
  /// array — the borrowed halves of a decoded view. Valid while the list
  /// is alive and unmodified.
  const uint32_t* pos_begin_data() const { return pos_begin_.data(); }
  const TokenPos* positions_data() const { return positions_.data(); }
  std::span<const TokenPos> PositionsOf(uint32_t i) const {
    return {positions_.data() + pos_begin_[i],
            positions_.data() + pos_begin_[i + 1]};
  }

  /// Decodes every docid into out[0 .. size()) (ascending).
  void DecodeDocsInto(DocNum* out) const;

  /// Heap footprint of the compressed representation, in bytes.
  size_t MemoryBytes() const;

  /// Forward cursor with block-max skipping: SkipTo advances past whole
  /// undecoded blocks whose max docid is below the target, then binary
  /// searches inside the one block it decodes.
  class Cursor {
   public:
    explicit Cursor(const BlockPostings& list);

    bool at_end() const { return index_ >= list_->num_docs_; }
    DocNum doc() const { return region_[index_ - region_begin_]; }
    /// Posting index of the current doc (addresses PositionsOf).
    uint32_t index() const { return index_; }

    void Next();
    /// Advances to the first doc >= target. Returns !at_end().
    bool SkipTo(DocNum target);

   private:
    void LoadRegion(uint32_t region);

    const BlockPostings* list_;
    uint32_t index_ = 0;
    uint32_t region_num_ = 0;    ///< blocks_ index; blocks_.size() = tail.
    uint32_t region_begin_ = 0;  ///< Posting index of region_[0].
    uint32_t region_size_ = 0;
    const DocNum* region_ = nullptr;  ///< decoded_ or the raw tail.
    DocNum decoded_[kBlockDocs];
  };

 private:
  friend class Cursor;

  struct BlockMeta {
    DocNum first_doc = 0;
    DocNum last_doc = 0;   ///< The skip entry: max docid in the block.
    uint32_t offset = 0;   ///< Byte offset of the packed deltas.
    uint8_t width = 0;     ///< Bytes per delta (1, 2 or 4).
  };

  void SealTail();

  std::vector<BlockMeta> blocks_;   ///< Sealed blocks of kBlockDocs docs.
  std::vector<uint8_t> deltas_;     ///< FOR-packed deltas of sealed blocks.
  std::vector<DocNum> tail_;        ///< Unsealed raw docids (<kBlockDocs).
  std::vector<uint32_t> pos_begin_; ///< num_docs_+1 entries once nonempty.
  std::vector<TokenPos> positions_; ///< Flat, shared by all blocks.
  uint32_t num_docs_ = 0;
  DocNum last_doc_ = 0;
};

/// Decodes `list` into a view: docids land in `arena`, positions are
/// borrowed from the list's own flat arrays (zero copy).
PostingsView DecodeBlockPostings(const BlockPostings& list, Arena& arena);

// Merge kernels. All outputs are FlatPostings in `arena`, sized by exact
// upper bounds. Their semantics (which side's positions survive, dedup
// rules) match the flat reference merges in tests/support, which the
// differential tests pin.

/// Intersection of two block lists via dual cursors with block-max
/// skipping. Positions survive from `a`.
FlatPostings IntersectBlocks(const BlockPostings& a, const BlockPostings& b,
                             Arena& arena);

/// Intersection of a decoded accumulator with a block list: gallops over
/// `a`, block-max skips through `b`. Positions survive from `a`.
FlatPostings IntersectViewBlock(PostingsView a, const BlockPostings& b,
                                Arena& arena);

/// Intersection of two views with mutual galloping. Positions survive
/// from `a`.
FlatPostings IntersectViews(PostingsView a, PostingsView b, Arena& arena);

/// Union; positions merged (sorted, deduplicated) for docs in both.
FlatPostings UnionViews(PostingsView a, PostingsView b, Arena& arena);

/// Docs in `a` but not `b`; positions from `a`.
FlatPostings DifferenceViews(PostingsView a, PostingsView b, Arena& arena);

/// Phrase step: docs where some position p in `a` has p+1 in `b`; the
/// resulting positions are the p+1 values (so chains of adjacency steps
/// implement multi-word phrases).
FlatPostings PhraseAdjacentViews(PostingsView a, PostingsView b,
                                 Arena& arena);

/// Proximity step: docs in both views where some position pair (pa, pb)
/// satisfies |pa - pb| <= distance; the resulting positions are the
/// qualifying positions from `b`. Multi-valued-field position gaps keep
/// proximity from crossing values as long as distance < the gap.
FlatPostings ProximityViews(PostingsView a, PostingsView b, TokenPos distance,
                            Arena& arena);

}  // namespace textjoin

#endif  // TEXTJOIN_TEXT_POSTINGS_H_
