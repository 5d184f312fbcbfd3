#ifndef TEXTJOIN_CONNECTOR_COST_METER_H_
#define TEXTJOIN_CONNECTOR_COST_METER_H_

#include <atomic>
#include <cstdint>
#include <string>

/// \file
/// The cost accounting at the loose-integration boundary (paper Section
/// 4.1): accessing the text system costs invocation + processing +
/// transmission; relational-side string matching costs c_a per document.
///
/// The paper measured wall-clock seconds against a remote Mercury server.
/// We substitute a simulated clock: the connector counts real operations
/// (invocations, postings scanned by the index, documents transmitted) and
/// converts them to "simulated seconds" with the paper's calibrated
/// constants. Method rankings and crossovers depend only on these counts,
/// so the substitution preserves the experimental shape (see DESIGN.md §2).

namespace textjoin {

/// The calibrated cost constants of Section 4.1. Defaults are the values
/// the paper measured on the integrated OpenODB–Mercury system (the paper's
/// printed c_s/c_l values are swapped relative to its own discussion; we
/// use the orientation its text requires: long form >> short form).
struct CostParams {
  double invocation = 3.0;          ///< c_i  (sec per search/connection)
  double per_posting = 0.00001;     ///< c_p  (sec per posting scanned)
  double short_form = 0.015;        ///< c_s  (sec per short-form document)
  double long_form = 4.0;           ///< c_l  (sec per long-form document)
  double relational_match = 0.001;  ///< c_a  (sec per document matched in SQL)
};

/// Counts of the billable operations a query execution performed.
struct AccessMeter {
  uint64_t invocations = 0;         ///< Searches sent to the text system.
  uint64_t postings_processed = 0;  ///< Inverted-list postings scanned.
  uint64_t short_docs = 0;          ///< Short-form documents transmitted.
  uint64_t long_docs = 0;           ///< Long-form documents retrieved.
  uint64_t relational_matches = 0;  ///< Docs string-matched on the DB side.

  /// Converts the counts to simulated seconds under `params`.
  double SimulatedSeconds(const CostParams& params) const {
    return params.invocation * static_cast<double>(invocations) +
           params.per_posting * static_cast<double>(postings_processed) +
           params.short_form * static_cast<double>(short_docs) +
           params.long_form * static_cast<double>(long_docs) +
           params.relational_match * static_cast<double>(relational_matches);
  }

  AccessMeter& operator+=(const AccessMeter& other) {
    invocations += other.invocations;
    postings_processed += other.postings_processed;
    short_docs += other.short_docs;
    long_docs += other.long_docs;
    relational_matches += other.relational_matches;
    return *this;
  }

  void Reset() { *this = AccessMeter{}; }

  /// Renders "inv=12 post=3456 short=78 long=9 rmatch=0" for logs/benches.
  std::string ToString() const;
};

inline bool operator==(const AccessMeter& a, const AccessMeter& b) {
  return a.invocations == b.invocations &&
         a.postings_processed == b.postings_processed &&
         a.short_docs == b.short_docs && a.long_docs == b.long_docs &&
         a.relational_matches == b.relational_matches;
}
inline bool operator!=(const AccessMeter& a, const AccessMeter& b) {
  return !(a == b);
}

/// The concurrency-safe charging sink behind RemoteTextSource: relaxed
/// atomic counters, charged from any number of threads. Counter sums are
/// commutative, so totals are byte-identical to a serial execution that
/// performs the same operations — the property the paper's cost accounting
/// (and our byte-identical-meter acceptance tests) rely on.
class AtomicAccessMeter {
 public:
  AtomicAccessMeter() = default;

  /// Adds a whole delta (e.g. folding one query's charges into a
  /// cumulative meter).
  void Add(const AccessMeter& delta) {
    constexpr auto kRelaxed = std::memory_order_relaxed;
    invocations_.fetch_add(delta.invocations, kRelaxed);
    postings_processed_.fetch_add(delta.postings_processed, kRelaxed);
    short_docs_.fetch_add(delta.short_docs, kRelaxed);
    long_docs_.fetch_add(delta.long_docs, kRelaxed);
    relational_matches_.fetch_add(delta.relational_matches, kRelaxed);
  }

  /// One search: an invocation + postings scanned + short-form results.
  void ChargeSearch(uint64_t postings, uint64_t results) {
    constexpr auto kRelaxed = std::memory_order_relaxed;
    invocations_.fetch_add(1, kRelaxed);
    postings_processed_.fetch_add(postings, kRelaxed);
    short_docs_.fetch_add(results, kRelaxed);
  }

  void ChargeInvocation() {
    invocations_.fetch_add(1, std::memory_order_relaxed);
  }
  void ChargePostings(uint64_t n) {
    postings_processed_.fetch_add(n, std::memory_order_relaxed);
  }
  void ChargeShortDocs(uint64_t n) {
    short_docs_.fetch_add(n, std::memory_order_relaxed);
  }
  void ChargeLongDoc() { long_docs_.fetch_add(1, std::memory_order_relaxed); }
  void ChargeRelationalMatches(uint64_t n) {
    relational_matches_.fetch_add(n, std::memory_order_relaxed);
  }

  /// A value snapshot. Consistent (not torn across fields) only once the
  /// operations being counted have completed — which holds everywhere we
  /// snapshot: after a query, after a join method's stage scheduler
  /// drained.
  AccessMeter Snapshot() const {
    constexpr auto kRelaxed = std::memory_order_relaxed;
    AccessMeter m;
    m.invocations = invocations_.load(kRelaxed);
    m.postings_processed = postings_processed_.load(kRelaxed);
    m.short_docs = short_docs_.load(kRelaxed);
    m.long_docs = long_docs_.load(kRelaxed);
    m.relational_matches = relational_matches_.load(kRelaxed);
    return m;
  }

  void Reset() {
    constexpr auto kRelaxed = std::memory_order_relaxed;
    invocations_.store(0, kRelaxed);
    postings_processed_.store(0, kRelaxed);
    short_docs_.store(0, kRelaxed);
    long_docs_.store(0, kRelaxed);
    relational_matches_.store(0, kRelaxed);
  }

 private:
  std::atomic<uint64_t> invocations_{0};
  std::atomic<uint64_t> postings_processed_{0};
  std::atomic<uint64_t> short_docs_{0};
  std::atomic<uint64_t> long_docs_{0};
  std::atomic<uint64_t> relational_matches_{0};
};

}  // namespace textjoin

#endif  // TEXTJOIN_CONNECTOR_COST_METER_H_
