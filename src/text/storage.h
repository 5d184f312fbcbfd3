#ifndef TEXTJOIN_TEXT_STORAGE_H_
#define TEXTJOIN_TEXT_STORAGE_H_

#include <cstdio>
#include <map>
#include <mutex>
#include <unordered_map>
#include <vector>
#include <memory>
#include <string>

#include "common/status.h"
#include "text/engine.h"
#include "text/eval.h"

/// \file
/// On-disk persistence for the text retrieval system, following the
/// architecture the paper assumes (Section 2.1, after [DH91]): "the
/// inverted lists reside on disk, and a main memory directory maps a word
/// to the location of its list."
///
/// Two artifacts:
///  - a *corpus file* (documents + fields) from which an in-memory engine
///    can be reconstructed;
///  - an *index file* whose directory is loaded into memory while posting
///    lists are read from disk on demand (DiskPostingIndex).
///
/// Format: little-endian binary, length-prefixed strings, magic+version
/// headers, no external dependencies.

namespace textjoin {

/// Serializes the engine's whole document collection.
Status WriteCorpusFile(const TextEngine& engine, const std::string& path);

/// Reads just the documents of a corpus file (no index construction).
Result<std::vector<Document>> ReadCorpusDocuments(const std::string& path);

/// Reconstructs an engine (documents + freshly built index) from a corpus
/// file. `max_search_terms` configures the loaded engine's M.
Result<std::unique_ptr<TextEngine>> ReadCorpusFile(
    const std::string& path, size_t max_search_terms = 70);

/// Serializes the engine's inverted index: a directory of
/// (field, token) -> (file offset, encoded length, posting count) followed
/// by the posting lists, delta+varint compressed (doc gaps and position
/// gaps) in the classic inverted-file style.
Status WriteIndexFile(const TextEngine& engine, const std::string& path);

/// Read-side of the index file: the directory lives in memory (as in
/// [DH91]); each ReadList seeks and decodes one posting list from disk.
class DiskPostingIndex {
 public:
  /// Opens `path` and loads the directory. `num_documents` is the size of
  /// the corpus the index was built over: a list naming a document at or
  /// past it is corrupt. The file must stay in place for the lifetime of
  /// the object. Fails with InvalidArgument when a directory entry runs
  /// past the end of the file.
  static Result<std::unique_ptr<DiskPostingIndex>> Open(
      const std::string& path, size_t num_documents);

  ~DiskPostingIndex();
  DiskPostingIndex(const DiskPostingIndex&) = delete;
  DiskPostingIndex& operator=(const DiskPostingIndex&) = delete;

  /// Reads the posting list for (field, token) from disk and decodes it
  /// into the block form the evaluator consumes; the returned handle owns
  /// the list. Empty list if the token is not in the directory. `token` is
  /// matched lowercase. Fails with InvalidArgument on a corrupt list: docs
  /// that do not ascend or fall outside the corpus, a posting with no
  /// positions, or positions that do not ascend. Safe to call
  /// concurrently: the shared seek+read on the single file handle is
  /// serialized internally.
  Result<BlockListHandle> ReadList(const std::string& field,
                                   const std::string& token) const;

  /// Reads the posting lists of every directory token in `field` with the
  /// given prefix (truncated searches).
  Result<std::vector<BlockListHandle>> ReadPrefixLists(
      const std::string& field, const std::string& prefix) const;

  /// Document frequency straight from the in-memory directory (no I/O) —
  /// this is what makes cooperative dictionary statistics cheap.
  size_t DocFrequency(const std::string& field,
                      const std::string& token) const;

  /// Number of (field, token) entries in the directory.
  size_t directory_size() const { return directory_.size(); }

 private:
  struct DirectoryEntry {
    uint64_t offset = 0;   ///< Byte offset of the encoded list.
    uint32_t bytes = 0;    ///< Encoded (delta+varint) length in bytes.
    uint32_t postings = 0; ///< Number of postings in the list.
  };

  DiskPostingIndex(std::FILE* file, size_t num_documents)
      : file_(file), num_documents_(num_documents) {}

  std::FILE* file_;
  size_t num_documents_;
  /// Serializes the fseek+fread pair in ReadList: the file position is
  /// state shared by every reader of the single handle.
  mutable std::mutex io_mu_;
  std::map<std::pair<std::string, std::string>, DirectoryEntry> directory_;
};

/// A text server whose posting lists live on disk: documents (for long
/// forms) and the index *directory* are memory-resident, every posting
/// list is read from the index file on demand — exactly the architecture
/// of [DH91] that the paper's Section 2.1 assumes.
///
/// Thread-safety: const methods are safe to call concurrently, like
/// TextEngine's. The one piece of shared mutable state — the file position
/// of the single index handle — is serialized inside
/// DiskPostingIndex::ReadList, so concurrent searches interleave their
/// posting-list reads without racing.
class DiskTextEngine final : public SearchableCorpus {
 public:
  /// Opens a corpus file + index file pair written by WriteCorpusFile /
  /// WriteIndexFile.
  static Result<std::unique_ptr<DiskTextEngine>> Open(
      const std::string& corpus_path, const std::string& index_path,
      size_t max_search_terms = 70);

  Result<EngineSearchResult> Search(const TextQuery& query) const override;
  const Document& GetDocument(DocNum num) const override;
  Result<DocNum> FindDocid(const std::string& docid) const override;
  size_t num_documents() const override { return docs_.size(); }
  size_t max_search_terms() const override { return max_search_terms_; }

  /// Exhaustive Boolean evaluation (see eval.h / TextEngine).
  void set_exhaustive_eval(bool exhaustive) { exhaustive_eval_ = exhaustive; }
  bool exhaustive_eval() const { return exhaustive_eval_; }

  const DiskPostingIndex& index() const { return *index_; }

 private:
  DiskTextEngine(std::vector<Document> docs,
                 std::unique_ptr<DiskPostingIndex> index,
                 size_t max_search_terms);

  std::vector<Document> docs_;
  std::unordered_map<std::string, DocNum> docid_to_num_;
  std::unique_ptr<DiskPostingIndex> index_;
  size_t max_search_terms_;
  bool exhaustive_eval_ = false;
};

}  // namespace textjoin

#endif  // TEXTJOIN_TEXT_STORAGE_H_
