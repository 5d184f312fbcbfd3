#include "text/storage.h"

#include <limits>
#include <vector>

#include "common/check.h"
#include "common/string_util.h"

namespace textjoin {
namespace {

constexpr uint32_t kCorpusMagic = 0x544a4331;  // "TJC1"
constexpr uint32_t kCorpusVersion = 1;
constexpr uint32_t kIndexMagic = 0x544a4932;   // "TJI2" (varint lists)
constexpr uint32_t kVersion = 2;

/// Minimal checked binary writer over stdio.
class Writer {
 public:
  explicit Writer(std::FILE* file) : file_(file) {}

  void U32(uint32_t v) { Raw(&v, sizeof(v)); }
  void U64(uint64_t v) { Raw(&v, sizeof(v)); }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    Raw(s.data(), s.size());
  }
  bool ok() const { return ok_; }
  uint64_t offset() const { return offset_; }

 private:
  void Raw(const void* data, size_t size) {
    if (!ok_) return;
    if (std::fwrite(data, 1, size, file_) != size) {
      ok_ = false;
      return;
    }
    offset_ += size;
  }

  std::FILE* file_;
  bool ok_ = true;
  uint64_t offset_ = 0;
};

/// Minimal checked binary reader over stdio.
class Reader {
 public:
  explicit Reader(std::FILE* file) : file_(file) {}

  Result<uint32_t> U32() {
    uint32_t v = 0;
    TEXTJOIN_RETURN_IF_ERROR(Raw(&v, sizeof(v)));
    return v;
  }
  Result<uint64_t> U64() {
    uint64_t v = 0;
    TEXTJOIN_RETURN_IF_ERROR(Raw(&v, sizeof(v)));
    return v;
  }
  Result<std::string> Str() {
    TEXTJOIN_ASSIGN_OR_RETURN(uint32_t size, U32());
    if (size > (1u << 28)) {
      return Status::InvalidArgument("corrupt file: oversized string");
    }
    std::string s(size, '\0');
    TEXTJOIN_RETURN_IF_ERROR(Raw(s.data(), size));
    return s;
  }

 private:
  Status Raw(void* data, size_t size) {
    if (std::fread(data, 1, size, file_) != size) {
      return Status::InvalidArgument("corrupt or truncated file");
    }
    return Status::OK();
  }

  std::FILE* file_;
};

/// RAII stdio handle.
struct FileCloser {
  std::FILE* file = nullptr;
  ~FileCloser() {
    if (file != nullptr) std::fclose(file);
  }
};

/// LEB128 varint append (posting lists are delta+varint encoded — the
/// classic inverted-file compression of the [DH91] era).
void AppendVarint(std::string& out, uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

/// Decodes one varint from [data+pos, data+size); advances pos.
Result<uint64_t> DecodeVarint(const std::string& data, size_t& pos) {
  uint64_t v = 0;
  int shift = 0;
  while (pos < data.size()) {
    const uint8_t byte = static_cast<uint8_t>(data[pos++]);
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
    if (shift > 63) break;
  }
  return Status::InvalidArgument("corrupt varint in index file");
}

/// Delta+varint encodes one posting list straight from its in-memory
/// block-compressed form (same byte stream as v2 always produced).
std::string EncodeBlockPostings(const BlockPostings& list) {
  std::string out;
  std::vector<DocNum> docs(list.size());
  list.DecodeDocsInto(docs.data());
  DocNum prev_doc = 0;
  for (uint32_t i = 0; i < list.size(); ++i) {
    AppendVarint(out, docs[i] - prev_doc);
    prev_doc = docs[i];
    const std::span<const TokenPos> positions = list.PositionsOf(i);
    AppendVarint(out, positions.size());
    TokenPos prev_pos = 0;
    for (TokenPos pos : positions) {
      AppendVarint(out, pos - prev_pos);
      prev_pos = pos;
    }
  }
  return out;
}

}  // namespace

Status WriteCorpusFile(const TextEngine& engine, const std::string& path) {
  FileCloser fc{std::fopen(path.c_str(), "wb")};
  if (fc.file == nullptr) {
    return Status::NotFound("cannot create corpus file '" + path + "'");
  }
  Writer w(fc.file);
  w.U32(kCorpusMagic);
  w.U32(kCorpusVersion);
  w.U64(engine.num_documents());
  for (const Document& doc : engine.documents()) {
    w.Str(doc.docid);
    w.U32(static_cast<uint32_t>(doc.fields.size()));
    for (const auto& [field, values] : doc.fields) {
      w.Str(field);
      w.U32(static_cast<uint32_t>(values.size()));
      for (const std::string& value : values) w.Str(value);
    }
  }
  if (!w.ok()) return Status::Internal("write failed for '" + path + "'");
  return Status::OK();
}

Result<std::vector<Document>> ReadCorpusDocuments(const std::string& path) {
  FileCloser fc{std::fopen(path.c_str(), "rb")};
  if (fc.file == nullptr) {
    return Status::NotFound("cannot open corpus file '" + path + "'");
  }
  Reader r(fc.file);
  TEXTJOIN_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  if (magic != kCorpusMagic) {
    return Status::InvalidArgument("'" + path + "' is not a corpus file");
  }
  TEXTJOIN_ASSIGN_OR_RETURN(uint32_t version, r.U32());
  if (version != kCorpusVersion) {
    return Status::Unimplemented("unsupported corpus file version " +
                                 std::to_string(version));
  }
  // Counts come from the file, so nothing is reserved from them: a corrupt
  // count fails at the first missing byte instead of on allocation.
  TEXTJOIN_ASSIGN_OR_RETURN(uint64_t count, r.U64());
  std::vector<Document> docs;
  for (uint64_t d = 0; d < count; ++d) {
    Document doc;
    TEXTJOIN_ASSIGN_OR_RETURN(doc.docid, r.Str());
    TEXTJOIN_ASSIGN_OR_RETURN(uint32_t fields, r.U32());
    for (uint32_t f = 0; f < fields; ++f) {
      TEXTJOIN_ASSIGN_OR_RETURN(std::string field, r.Str());
      TEXTJOIN_ASSIGN_OR_RETURN(uint32_t values, r.U32());
      std::vector<std::string> list;
      for (uint32_t v = 0; v < values; ++v) {
        TEXTJOIN_ASSIGN_OR_RETURN(std::string value, r.Str());
        list.push_back(std::move(value));
      }
      doc.fields[field] = std::move(list);
    }
    docs.push_back(std::move(doc));
  }
  return docs;
}

Result<std::unique_ptr<TextEngine>> ReadCorpusFile(const std::string& path,
                                                   size_t max_search_terms) {
  TEXTJOIN_ASSIGN_OR_RETURN(std::vector<Document> docs,
                            ReadCorpusDocuments(path));
  auto engine = std::make_unique<TextEngine>(max_search_terms);
  for (Document& doc : docs) {
    Result<DocNum> added = engine->AddDocument(std::move(doc));
    if (!added.ok()) return added.status();
  }
  return engine;
}

Status WriteIndexFile(const TextEngine& engine, const std::string& path) {
  // Encode every list into one data blob (recording offsets and byte
  // lengths), then emit directory + blob. Lists are delta+varint
  // compressed.
  struct Entry {
    std::string field;
    std::string token;
    uint64_t offset = 0;  ///< Relative to the start of the data blob.
    uint32_t bytes = 0;
    uint32_t postings = 0;
  };
  std::vector<Entry> entries;
  std::string blob;
  engine.index().ForEachList(
      [&](const std::string& field, const std::string& token,
          const BlockPostings& list) {
        Entry e;
        e.field = field;
        e.token = token;
        e.offset = blob.size();
        const std::string encoded = EncodeBlockPostings(list);
        e.bytes = static_cast<uint32_t>(encoded.size());
        e.postings = list.size();
        blob += encoded;
        entries.push_back(std::move(e));
      });

  // Directory layout per entry: field, token, offset(u64), bytes(u32),
  // postings(u32). Offsets in the file are blob-relative + header size.
  uint64_t directory_bytes = 4 + 4 + 8;  // magic, version, entry count
  for (const Entry& e : entries) {
    directory_bytes += 4 + e.field.size() + 4 + e.token.size() + 8 + 4 + 4;
  }
  FileCloser fc{std::fopen(path.c_str(), "wb")};
  if (fc.file == nullptr) {
    return Status::NotFound("cannot create index file '" + path + "'");
  }
  Writer w(fc.file);
  w.U32(kIndexMagic);
  w.U32(kVersion);
  w.U64(entries.size());
  for (const Entry& e : entries) {
    w.Str(e.field);
    w.Str(e.token);
    w.U64(directory_bytes + e.offset);
    w.U32(e.bytes);
    w.U32(e.postings);
  }
  TEXTJOIN_CHECK(w.offset() == directory_bytes,
                 "directory size accounting mismatch");
  if (!blob.empty() &&
      std::fwrite(blob.data(), 1, blob.size(), fc.file) != blob.size()) {
    return Status::Internal("write failed for '" + path + "'");
  }
  return Status::OK();
}

DiskPostingIndex::~DiskPostingIndex() {
  if (file_ != nullptr) std::fclose(file_);
}

Result<std::unique_ptr<DiskPostingIndex>> DiskPostingIndex::Open(
    const std::string& path, size_t num_documents) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) {
    return Status::NotFound("cannot open index file '" + path + "'");
  }
  auto index = std::unique_ptr<DiskPostingIndex>(
      new DiskPostingIndex(file, num_documents));
  if (std::fseek(file, 0, SEEK_END) != 0) {
    return Status::Internal("seek failed in index file");
  }
  const long end = std::ftell(file);
  if (end < 0 || std::fseek(file, 0, SEEK_SET) != 0) {
    return Status::Internal("seek failed in index file");
  }
  const uint64_t file_size = static_cast<uint64_t>(end);
  Reader r(file);
  TEXTJOIN_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  if (magic != kIndexMagic) {
    return Status::InvalidArgument("'" + path + "' is not an index file");
  }
  TEXTJOIN_ASSIGN_OR_RETURN(uint32_t version, r.U32());
  if (version != kVersion) {
    return Status::Unimplemented("unsupported index file version " +
                                 std::to_string(version));
  }
  TEXTJOIN_ASSIGN_OR_RETURN(uint64_t count, r.U64());
  for (uint64_t i = 0; i < count; ++i) {
    TEXTJOIN_ASSIGN_OR_RETURN(std::string field, r.Str());
    TEXTJOIN_ASSIGN_OR_RETURN(std::string token, r.Str());
    DirectoryEntry entry;
    TEXTJOIN_ASSIGN_OR_RETURN(entry.offset, r.U64());
    TEXTJOIN_ASSIGN_OR_RETURN(entry.bytes, r.U32());
    TEXTJOIN_ASSIGN_OR_RETURN(entry.postings, r.U32());
    if (entry.offset > file_size || entry.bytes > file_size - entry.offset) {
      return Status::InvalidArgument(
          "corrupt index file: list runs past the end of the file");
    }
    index->directory_[{std::move(field), std::move(token)}] = entry;
  }
  return index;
}

size_t DiskPostingIndex::DocFrequency(const std::string& field,
                                      const std::string& token) const {
  auto it = directory_.find({field, ToLower(token)});
  return it == directory_.end() ? 0 : it->second.postings;
}

Result<BlockListHandle> DiskPostingIndex::ReadList(
    const std::string& field, const std::string& token) const {
  auto it = directory_.find({field, ToLower(token)});
  if (it == directory_.end()) {
    return BlockListHandle::Owned(std::make_shared<const BlockPostings>());
  }
  std::string encoded(it->second.bytes, '\0');
  {
    // The handle's file position is shared state; only the seek+read pair
    // needs the lock (decoding below works on the private buffer).
    std::lock_guard<std::mutex> lock(io_mu_);
    if (std::fseek(file_, static_cast<long>(it->second.offset), SEEK_SET) !=
        0) {
      return Status::Internal("seek failed in index file");
    }
    if (std::fread(encoded.data(), 1, encoded.size(), file_) !=
        encoded.size()) {
      return Status::InvalidArgument("corrupt or truncated index file");
    }
  }
  // Decode the delta+varint stream straight into the block-compressed
  // form. The stream is outside input: every doc must ascend and stay
  // inside the corpus, and every posting must carry ascending positions,
  // or BlockPostings::Append and the corpus's GetDocument would abort.
  auto list = std::make_shared<BlockPostings>();
  size_t pos = 0;
  uint64_t prev_doc = 0;
  for (uint32_t p = 0; p < it->second.postings; ++p) {
    TEXTJOIN_ASSIGN_OR_RETURN(uint64_t doc_delta, DecodeVarint(encoded, pos));
    if ((p > 0 && doc_delta == 0) || doc_delta >= num_documents_ - prev_doc) {
      return Status::InvalidArgument(
          "corrupt index file: doc out of order or out of range");
    }
    const uint64_t doc = prev_doc + doc_delta;
    prev_doc = doc;
    TEXTJOIN_ASSIGN_OR_RETURN(uint64_t positions, DecodeVarint(encoded, pos));
    if (positions == 0) {
      return Status::InvalidArgument(
          "corrupt index file: posting without positions");
    }
    uint64_t prev_pos = 0;
    for (uint64_t i = 0; i < positions; ++i) {
      TEXTJOIN_ASSIGN_OR_RETURN(uint64_t delta, DecodeVarint(encoded, pos));
      if ((i > 0 && delta == 0) ||
          delta > std::numeric_limits<TokenPos>::max() - prev_pos) {
        return Status::InvalidArgument(
            "corrupt index file: positions out of order");
      }
      prev_pos += delta;
      list->Append(static_cast<DocNum>(doc), static_cast<TokenPos>(prev_pos));
    }
  }
  return BlockListHandle::Owned(std::move(list));
}

Result<std::vector<BlockListHandle>> DiskPostingIndex::ReadPrefixLists(
    const std::string& field, const std::string& prefix) const {
  std::vector<BlockListHandle> lists;
  const std::string lower = ToLower(prefix);
  for (auto it = directory_.lower_bound({field, lower});
       it != directory_.end() && it->first.first == field &&
       StartsWith(it->first.second, lower);
       ++it) {
    TEXTJOIN_ASSIGN_OR_RETURN(BlockListHandle list,
                              ReadList(field, it->first.second));
    lists.push_back(std::move(list));
  }
  return lists;
}

namespace {

/// ListProvider over a DiskPostingIndex.
class DiskLists final : public ListProvider {
 public:
  explicit DiskLists(const DiskPostingIndex* index) : index_(index) {}

  Result<BlockListHandle> GetList(const std::string& field,
                                  const std::string& token) const override {
    return index_->ReadList(field, token);
  }

  Result<std::vector<BlockListHandle>> GetPrefixLists(
      const std::string& field, const std::string& prefix) const override {
    return index_->ReadPrefixLists(field, prefix);
  }

 private:
  const DiskPostingIndex* index_;
};

}  // namespace

DiskTextEngine::DiskTextEngine(std::vector<Document> docs,
                               std::unique_ptr<DiskPostingIndex> index,
                               size_t max_search_terms)
    : docs_(std::move(docs)),
      index_(std::move(index)),
      max_search_terms_(max_search_terms) {
  for (DocNum n = 0; n < docs_.size(); ++n) {
    docid_to_num_[docs_[n].docid] = n;
  }
}

Result<std::unique_ptr<DiskTextEngine>> DiskTextEngine::Open(
    const std::string& corpus_path, const std::string& index_path,
    size_t max_search_terms) {
  TEXTJOIN_ASSIGN_OR_RETURN(std::vector<Document> docs,
                            ReadCorpusDocuments(corpus_path));
  TEXTJOIN_ASSIGN_OR_RETURN(std::unique_ptr<DiskPostingIndex> index,
                            DiskPostingIndex::Open(index_path, docs.size()));
  return std::unique_ptr<DiskTextEngine>(new DiskTextEngine(
      std::move(docs), std::move(index), max_search_terms));
}

Result<EngineSearchResult> DiskTextEngine::Search(
    const TextQuery& query) const {
  DiskLists lists(index_.get());
  return EvaluateBooleanQuery(query, lists, docs_.size(),
                              max_search_terms_, exhaustive_eval_);
}

const Document& DiskTextEngine::GetDocument(DocNum num) const {
  TEXTJOIN_CHECK(num < docs_.size(), "document number %u out of range", num);
  return docs_[num];
}

Result<DocNum> DiskTextEngine::FindDocid(const std::string& docid) const {
  auto it = docid_to_num_.find(docid);
  if (it == docid_to_num_.end()) {
    return Status::NotFound("no document with docid '" + docid + "'");
  }
  return it->second;
}

}  // namespace textjoin
