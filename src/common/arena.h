#ifndef TEXTJOIN_COMMON_ARENA_H_
#define TEXTJOIN_COMMON_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string_view>
#include <type_traits>
#include <vector>

#include "common/check.h"

/// \file
/// Per-query bump allocator.
///
/// The vectorized hot path (DESIGN.md §14) sizes its intermediate posting
/// arrays by exact upper bounds (an intersection holds at most
/// min(|a|, |b|) docs), so allocation reduces to bumping a pointer in a
/// chunk and the whole query's scratch memory is released wholesale, when
/// the Arena dies or is Reset. Only trivially destructible element types
/// are allowed — the Arena never runs destructors.
///
/// Chunks are left uninitialized. The first is the larger of the minimum
/// chunk size and the request that needs it; each later one at least
/// doubles the one before. Reset keeps the largest chunk of at most
/// kMaxRetainedBytes, so an arena reused across searches settles into one
/// chunk that fits all but the largest of them, and stops asking the
/// system for memory.

namespace textjoin {

/// A chunked bump allocator. Not thread-safe: one Arena per query (or per
/// evaluator, or per thread), used from one thread at a time.
class Arena {
 public:
  static constexpr size_t kDefaultChunkBytes = 1u << 12;  // 4 KiB
  /// The largest chunk Reset keeps for reuse.
  static constexpr size_t kMaxRetainedBytes = 1u << 20;  // 1 MiB

  explicit Arena(size_t min_chunk_bytes = kDefaultChunkBytes)
      : min_chunk_bytes_(min_chunk_bytes) {}
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Allocates `bytes` with the given power-of-two alignment. Never
  /// returns null; a zero-byte request yields a valid (unusable) pointer.
  void* AllocBytes(size_t bytes, size_t align) {
    TEXTJOIN_CHECK((align & (align - 1)) == 0, "alignment must be a power "
                   "of two");
    uintptr_t p = (cursor_ + (align - 1)) & ~(uintptr_t{align} - 1);
    if (p + bytes > limit_) {
      AddChunk(bytes + align);
      p = (cursor_ + (align - 1)) & ~(uintptr_t{align} - 1);
    }
    cursor_ = p + bytes;
    bytes_allocated_ += bytes;
    ++allocations_;
    return reinterpret_cast<void*>(p);
  }

  /// Allocates an uninitialized array of `count` elements of T.
  template <typename T>
  T* AllocArray(size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena never runs destructors");
    return static_cast<T*>(AllocBytes(count * sizeof(T), alignof(T)));
  }

  /// Copies `s` into the arena and returns a view of the stable copy.
  std::string_view CopyString(std::string_view s) {
    char* p = AllocArray<char>(s.size());
    std::memcpy(p, s.data(), s.size());
    return {p, s.size()};
  }

  /// Releases every allocation at once. Keeps the largest chunk of at most
  /// kMaxRetainedBytes for the allocations that follow, and returns the
  /// other chunks to the system. The counters restart.
  void Reset() {
    Chunk kept;
    for (Chunk& chunk : chunks_) {
      if (chunk.size > kept.size && chunk.size <= kMaxRetainedBytes) {
        kept = std::move(chunk);
      }
    }
    chunks_.clear();
    cursor_ = limit_ = 0;
    bytes_reserved_ = bytes_allocated_ = allocations_ = 0;
    if (kept.data != nullptr) UseChunk(std::move(kept));
  }

  /// Total bytes handed out (excludes alignment padding and chunk slack).
  size_t bytes_allocated() const { return bytes_allocated_; }
  /// Total bytes reserved from the system allocator, in the chunks held.
  size_t bytes_reserved() const { return bytes_reserved_; }
  /// Number of AllocBytes calls served.
  size_t allocations() const { return allocations_; }
  /// Number of chunks held.
  size_t num_chunks() const { return chunks_.size(); }

 private:
  struct Chunk {
    std::unique_ptr<char[]> data;
    size_t size = 0;
  };

  void AddChunk(size_t at_least) {
    size_t size = min_chunk_bytes_;
    // Grow geometrically so a query with large lists settles into a few
    // big chunks instead of many small ones.
    if (!chunks_.empty()) size = chunks_.back().size * 2;
    if (size < at_least) size = at_least;
    // Uninitialized: every byte is written before it is read.
    UseChunk({std::make_unique_for_overwrite<char[]>(size), size});
  }

  /// Appends `chunk` and bumps from its start.
  void UseChunk(Chunk chunk) {
    bytes_reserved_ += chunk.size;
    cursor_ = reinterpret_cast<uintptr_t>(chunk.data.get());
    limit_ = cursor_ + chunk.size;
    chunks_.push_back(std::move(chunk));
  }

  size_t min_chunk_bytes_;
  std::vector<Chunk> chunks_;
  uintptr_t cursor_ = 0;
  uintptr_t limit_ = 0;
  size_t bytes_allocated_ = 0;
  size_t bytes_reserved_ = 0;
  size_t allocations_ = 0;
};

}  // namespace textjoin

#endif  // TEXTJOIN_COMMON_ARENA_H_
