#ifndef TEXTJOIN_CONNECTOR_TEXT_SOURCE_H_
#define TEXTJOIN_CONNECTOR_TEXT_SOURCE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "text/document.h"
#include "text/query.h"

/// \file
/// The loose-integration boundary (paper Section 2.3): the database system
/// accesses the text retrieval system ONLY via search and retrieve. The
/// text system's internal structures are not visible through this
/// interface, and no links between relational tuples and documents exist.

namespace textjoin {

/// Abstract external text source. All join methods in src/core are written
/// against this interface; they never touch the engine directly.
///
/// Search and Fetch are const and must be safe to call concurrently from
/// multiple threads: the parallel foreign-join engine overlaps many
/// independent round-trips against one source. Implementations keep any
/// internal accounting (meters, failure injection) in atomics.
class TextSource {
 public:
  virtual ~TextSource() = default;

  /// Evaluates a Boolean search and returns the short-form result set: the
  /// docids of matching documents. Fails with ResourceExhausted when the
  /// query exceeds max_search_terms() basic terms.
  virtual Result<std::vector<std::string>> Search(
      const TextQuery& query) const = 0;

  /// Retrieves the long form (all fields) of one document by docid.
  virtual Result<Document> Fetch(const std::string& docid) const = 0;

  /// The per-search term limit M (70 for Mercury).
  virtual size_t max_search_terms() const = 0;

  /// Total number of documents D. The paper assumes this piece of
  /// "statistical meta information" is extractable (Section 2.3).
  virtual size_t num_documents() const = 0;

  /// How many Search/Fetch calls may safely be in flight concurrently
  /// against this source. 0 (the default) means unlimited; an executor must
  /// clamp its parallelism to a non-zero value instead of silently racing.
  virtual int max_concurrency() const { return 0; }
};

/// Base for sources that wrap another source (resilience, fault injection,
/// metering shims). Forwards the statistical metadata and the concurrency
/// cap; subclasses override Search/Fetch with their added behavior. Layers
/// that need the innermost metered source (profiling, relational-match
/// charging) unwrap the chain with UnwrapMetered (remote_text_source.h).
class TextSourceDecorator : public TextSource {
 public:
  /// `inner` must outlive this object.
  explicit TextSourceDecorator(TextSource* inner) : inner_(inner) {}

  TextSource* inner() const { return inner_; }

  size_t max_search_terms() const override {
    return inner_->max_search_terms();
  }
  size_t num_documents() const override { return inner_->num_documents(); }
  int max_concurrency() const override { return inner_->max_concurrency(); }

 protected:
  TextSource* inner_;
};

}  // namespace textjoin

#endif  // TEXTJOIN_CONNECTOR_TEXT_SOURCE_H_
