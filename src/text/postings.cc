#include "text/postings.h"

#include <algorithm>
#include <cstring>

#include "common/check.h"

namespace textjoin {

namespace {

constexpr uint32_t kZeroPosBegin[1] = {0};

/// First index >= `from` with docs[index] >= target (or n). Exponential
/// probe then binary search — adaptive: near misses cost O(1), far skips
/// O(log gap).
uint32_t GallopTo(const DocNum* docs, uint32_t n, uint32_t from,
                  DocNum target) {
  if (from >= n || docs[from] >= target) return from;
  uint32_t step = 1;
  uint32_t lo = from, hi = from + 1;
  while (hi < n && docs[hi] < target) {
    lo = hi;
    hi += step;
    step <<= 1;
  }
  const uint32_t end = hi < n ? hi + 1 : n;
  return static_cast<uint32_t>(
      std::lower_bound(docs + lo + 1, docs + end, target) - docs);
}

/// Appends posting i of `v` (doc + positions) to `out`.
inline void CopyPosting(FlatPostings& out, const PostingsView& v,
                        uint32_t i) {
  out.AppendDoc(v.docs[i]);
  out.AppendPositions(v.positions + v.pos_begin[i],
                      v.pos_begin[i + 1] - v.pos_begin[i]);
}

}  // namespace

PostingsView EmptyPostingsView() {
  return {nullptr, kZeroPosBegin, nullptr, 0};
}

FlatPostings FlatPostings::Make(Arena& arena, uint32_t max_docs,
                                uint32_t max_positions) {
  FlatPostings out;
  out.docs = arena.AllocArray<DocNum>(max_docs);
  out.pos_begin = arena.AllocArray<uint32_t>(max_docs + 1);
  out.positions = arena.AllocArray<TokenPos>(max_positions);
  out.pos_begin[0] = 0;
  return out;
}

void FlatPostings::AppendPositions(const TokenPos* pos, uint32_t count) {
  std::memcpy(positions + num_positions, pos, count * sizeof(TokenPos));
  num_positions += count;
}

PostingsView FlatPostings::View() {
  pos_begin[size] = num_positions;
  return {docs, pos_begin, positions, size};
}

// ---------------------------------------------------------------------------
// BlockPostings

bool BlockPostings::Append(DocNum doc, TokenPos pos) {
  bool new_doc = false;
  if (num_docs_ == 0 || doc != last_doc_) {
    TEXTJOIN_CHECK(num_docs_ == 0 || doc > last_doc_,
                   "postings must be appended in increasing doc order");
    if (pos_begin_.empty()) pos_begin_.push_back(0);
    pos_begin_.push_back(static_cast<uint32_t>(positions_.size()));
    tail_.push_back(doc);
    last_doc_ = doc;
    ++num_docs_;
    if (tail_.size() == kBlockDocs) SealTail();
    new_doc = true;
  }
  positions_.push_back(pos);
  pos_begin_.back() = static_cast<uint32_t>(positions_.size());
  return new_doc;
}

void BlockPostings::SealTail() {
  uint32_t max_delta = 0;
  for (uint32_t k = 1; k < kBlockDocs; ++k) {
    max_delta = std::max(max_delta, tail_[k] - tail_[k - 1]);
  }
  BlockMeta meta;
  meta.first_doc = tail_.front();
  meta.last_doc = tail_.back();
  meta.offset = static_cast<uint32_t>(deltas_.size());
  meta.width = max_delta <= 0xff ? 1 : (max_delta <= 0xffff ? 2 : 4);
  deltas_.resize(deltas_.size() +
                 static_cast<size_t>(meta.width) * (kBlockDocs - 1));
  uint8_t* p = deltas_.data() + meta.offset;
  for (uint32_t k = 1; k < kBlockDocs; ++k) {
    const uint32_t delta = tail_[k] - tail_[k - 1];
    std::memcpy(p, &delta, meta.width);  // Little-endian byte packing.
    p += meta.width;
  }
  blocks_.push_back(meta);
  tail_.clear();
}

DocNum BlockPostings::first_doc() const {
  TEXTJOIN_CHECK(num_docs_ > 0, "first_doc of an empty list");
  return blocks_.empty() ? tail_.front() : blocks_.front().first_doc;
}

DocNum BlockPostings::last_doc() const {
  TEXTJOIN_CHECK(num_docs_ > 0, "last_doc of an empty list");
  return last_doc_;
}

void BlockPostings::DecodeDocsInto(DocNum* out) const {
  DocNum* o = out;
  for (const BlockMeta& m : blocks_) {
    const uint8_t* p = deltas_.data() + m.offset;
    DocNum cur = m.first_doc;
    *o++ = cur;
    switch (m.width) {
      case 1:
        for (uint32_t k = 0; k + 1 < kBlockDocs; ++k) {
          cur += p[k];
          *o++ = cur;
        }
        break;
      case 2:
        for (uint32_t k = 0; k + 1 < kBlockDocs; ++k) {
          uint16_t d;
          std::memcpy(&d, p + 2 * k, 2);
          cur += d;
          *o++ = cur;
        }
        break;
      default:
        for (uint32_t k = 0; k + 1 < kBlockDocs; ++k) {
          uint32_t d;
          std::memcpy(&d, p + 4 * k, 4);
          cur += d;
          *o++ = cur;
        }
        break;
    }
  }
  // An empty tail may come with null pointers on either side, and memcpy
  // with a null argument is undefined even for zero bytes.
  if (!tail_.empty()) {
    std::memcpy(o, tail_.data(), tail_.size() * sizeof(DocNum));
  }
}

size_t BlockPostings::MemoryBytes() const {
  return blocks_.capacity() * sizeof(BlockMeta) + deltas_.capacity() +
         tail_.capacity() * sizeof(DocNum) +
         pos_begin_.capacity() * sizeof(uint32_t) +
         positions_.capacity() * sizeof(TokenPos);
}

BlockPostings::Cursor::Cursor(const BlockPostings& list) : list_(&list) {
  if (list_->num_docs_ > 0) LoadRegion(0);
}

void BlockPostings::Cursor::LoadRegion(uint32_t region) {
  region_num_ = region;
  if (region < list_->blocks_.size()) {
    const BlockMeta& m = list_->blocks_[region];
    const uint8_t* p = list_->deltas_.data() + m.offset;
    DocNum cur = m.first_doc;
    decoded_[0] = cur;
    switch (m.width) {
      case 1:
        for (uint32_t k = 1; k < kBlockDocs; ++k) {
          cur += p[k - 1];
          decoded_[k] = cur;
        }
        break;
      case 2:
        for (uint32_t k = 1; k < kBlockDocs; ++k) {
          uint16_t d;
          std::memcpy(&d, p + 2 * (k - 1), 2);
          cur += d;
          decoded_[k] = cur;
        }
        break;
      default:
        for (uint32_t k = 1; k < kBlockDocs; ++k) {
          uint32_t d;
          std::memcpy(&d, p + 4 * (k - 1), 4);
          cur += d;
          decoded_[k] = cur;
        }
        break;
    }
    region_ = decoded_;
    region_begin_ = region * kBlockDocs;
    region_size_ = kBlockDocs;
  } else {
    region_ = list_->tail_.data();
    region_begin_ =
        static_cast<uint32_t>(list_->blocks_.size()) * kBlockDocs;
    region_size_ = static_cast<uint32_t>(list_->tail_.size());
  }
}

void BlockPostings::Cursor::Next() {
  ++index_;
  if (index_ < list_->num_docs_ && index_ - region_begin_ >= region_size_) {
    LoadRegion(region_num_ + 1);
  }
}

bool BlockPostings::Cursor::SkipTo(DocNum target) {
  if (at_end()) return false;
  if (doc() >= target) return true;
  const DocNum region_last = region_num_ < list_->blocks_.size()
                                 ? list_->blocks_[region_num_].last_doc
                                 : list_->tail_.back();
  if (region_last < target) {
    // Block-max skip: find the first later block whose max docid reaches
    // the target — without decoding the blocks passed over.
    const std::vector<BlockMeta>& blocks = list_->blocks_;
    if (region_num_ >= blocks.size()) {
      // Already in the tail, whose max is below the target: past the end.
      index_ = list_->num_docs_;
      return false;
    }
    uint32_t lo = region_num_ + 1;
    uint32_t hi = static_cast<uint32_t>(blocks.size());
    while (lo < hi) {
      const uint32_t mid = lo + (hi - lo) / 2;
      if (blocks[mid].last_doc < target) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    if (lo == blocks.size() &&
        (list_->tail_.empty() || list_->tail_.back() < target)) {
      index_ = list_->num_docs_;
      return false;
    }
    LoadRegion(lo);
    index_ = region_begin_;
  }
  const uint32_t off = static_cast<uint32_t>(
      std::lower_bound(region_ + (index_ - region_begin_),
                       region_ + region_size_, target) -
      region_);
  index_ = region_begin_ + off;
  return true;
}

PostingsView DecodeBlockPostings(const BlockPostings& list, Arena& arena) {
  if (list.empty()) return EmptyPostingsView();
  DocNum* docs = arena.AllocArray<DocNum>(list.size());
  list.DecodeDocsInto(docs);
  return {docs, list.pos_begin_data(), list.positions_data(), list.size()};
}

// ---------------------------------------------------------------------------
// Merge kernels

FlatPostings IntersectBlocks(const BlockPostings& a, const BlockPostings& b,
                             Arena& arena) {
  FlatPostings out =
      FlatPostings::Make(arena, std::min(a.size(), b.size()),
                         static_cast<uint32_t>(a.num_positions()));
  BlockPostings::Cursor ca(a);
  BlockPostings::Cursor cb(b);
  while (!ca.at_end() && !cb.at_end()) {
    const DocNum da = ca.doc();
    const DocNum db = cb.doc();
    if (da < db) {
      if (!ca.SkipTo(db)) break;
    } else if (db < da) {
      if (!cb.SkipTo(da)) break;
    } else {
      out.AppendDoc(da);
      const std::span<const TokenPos> pos = a.PositionsOf(ca.index());
      out.AppendPositions(pos.data(), static_cast<uint32_t>(pos.size()));
      ca.Next();
      cb.Next();
    }
  }
  return out;
}

FlatPostings IntersectViewBlock(PostingsView a, const BlockPostings& b,
                                Arena& arena) {
  FlatPostings out = FlatPostings::Make(
      arena, std::min(a.size, b.size()), a.num_positions());
  BlockPostings::Cursor cb(b);
  uint32_t i = 0;
  while (i < a.size && !cb.at_end()) {
    const DocNum da = a.docs[i];
    if (cb.doc() < da && !cb.SkipTo(da)) break;
    const DocNum db = cb.doc();
    if (da == db) {
      CopyPosting(out, a, i);
      ++i;
      cb.Next();
    } else {  // db > da: gallop the decoded side forward.
      i = GallopTo(a.docs, a.size, i + 1, db);
    }
  }
  return out;
}

FlatPostings IntersectViews(PostingsView a, PostingsView b, Arena& arena) {
  FlatPostings out = FlatPostings::Make(arena, std::min(a.size, b.size),
                                        a.num_positions());
  uint32_t i = 0, j = 0;
  while (i < a.size && j < b.size) {
    const DocNum da = a.docs[i];
    const DocNum db = b.docs[j];
    if (da < db) {
      i = GallopTo(a.docs, a.size, i + 1, db);
    } else if (db < da) {
      j = GallopTo(b.docs, b.size, j + 1, da);
    } else {
      CopyPosting(out, a, i);
      ++i;
      ++j;
    }
  }
  return out;
}

FlatPostings UnionViews(PostingsView a, PostingsView b, Arena& arena) {
  FlatPostings out =
      FlatPostings::Make(arena, a.size + b.size,
                         a.num_positions() + b.num_positions());
  uint32_t i = 0, j = 0;
  while (i < a.size || j < b.size) {
    if (j >= b.size || (i < a.size && a.docs[i] < b.docs[j])) {
      CopyPosting(out, a, i++);
    } else if (i >= a.size || b.docs[j] < a.docs[i]) {
      CopyPosting(out, b, j++);
    } else {
      out.AppendDoc(a.docs[i]);
      // Merge + dedup the two sorted position runs.
      const std::span<const TokenPos> pa = a.PositionsOf(i);
      const std::span<const TokenPos> pb = b.PositionsOf(j);
      const uint32_t start = out.num_positions;
      size_t x = 0, y = 0;
      while (x < pa.size() || y < pb.size()) {
        TokenPos v;
        if (y >= pb.size() || (x < pa.size() && pa[x] < pb[y])) {
          v = pa[x++];
        } else if (x >= pa.size() || pb[y] < pa[x]) {
          v = pb[y++];
        } else {
          v = pa[x];
          ++x;
          ++y;
        }
        if (out.num_positions == start ||
            out.positions[out.num_positions - 1] != v) {
          out.AppendPosition(v);
        }
      }
      ++i;
      ++j;
    }
  }
  return out;
}

FlatPostings DifferenceViews(PostingsView a, PostingsView b, Arena& arena) {
  FlatPostings out = FlatPostings::Make(arena, a.size, a.num_positions());
  uint32_t i = 0, j = 0;
  while (i < a.size) {
    if (j >= b.size || a.docs[i] < b.docs[j]) {
      CopyPosting(out, a, i++);
    } else if (b.docs[j] < a.docs[i]) {
      ++j;
    } else {
      ++i;
      ++j;
    }
  }
  return out;
}

FlatPostings PhraseAdjacentViews(PostingsView a, PostingsView b,
                                 Arena& arena) {
  FlatPostings out = FlatPostings::Make(arena, std::min(a.size, b.size),
                                        b.num_positions());
  uint32_t i = 0, j = 0;
  while (i < a.size && j < b.size) {
    const DocNum da = a.docs[i];
    const DocNum db = b.docs[j];
    if (da < db) {
      i = GallopTo(a.docs, a.size, i + 1, db);
    } else if (db < da) {
      j = GallopTo(b.docs, b.size, j + 1, da);
    } else {
      const std::span<const TokenPos> pa = a.PositionsOf(i);
      const std::span<const TokenPos> pb = b.PositionsOf(j);
      const uint32_t start = out.num_positions;
      size_t x = 0, y = 0;
      bool emitted = false;
      while (x < pa.size() && y < pb.size()) {
        const TokenPos want = pa[x] + 1;
        if (pb[y] < want) {
          ++y;
        } else if (pb[y] > want) {
          ++x;
        } else {
          if (!emitted) {
            out.AppendDoc(da);
            out.pos_begin[out.size - 1] = start;
            emitted = true;
          }
          out.AppendPosition(pb[y]);
          ++x;
          ++y;
        }
      }
      ++i;
      ++j;
    }
  }
  return out;
}

FlatPostings ProximityViews(PostingsView a, PostingsView b, TokenPos distance,
                            Arena& arena) {
  FlatPostings out = FlatPostings::Make(arena, std::min(a.size, b.size),
                                        b.num_positions());
  uint32_t i = 0, j = 0;
  while (i < a.size && j < b.size) {
    const DocNum da = a.docs[i];
    const DocNum db = b.docs[j];
    if (da < db) {
      i = GallopTo(a.docs, a.size, i + 1, db);
    } else if (db < da) {
      j = GallopTo(b.docs, b.size, j + 1, da);
    } else {
      const std::span<const TokenPos> pa = a.PositionsOf(i);
      const std::span<const TokenPos> pb = b.PositionsOf(j);
      bool emitted = false;
      size_t x = 0;
      for (size_t y = 0; y < pb.size(); ++y) {
        while (x < pa.size() && pa[x] + distance < pb[y]) ++x;
        if (x < pa.size() &&
            (pa[x] <= pb[y] ? pb[y] - pa[x] : pa[x] - pb[y]) <= distance) {
          if (!emitted) {
            out.AppendDoc(da);
            emitted = true;
          }
          out.AppendPosition(pb[y]);
        }
      }
      ++i;
      ++j;
    }
  }
  return out;
}

}  // namespace textjoin
