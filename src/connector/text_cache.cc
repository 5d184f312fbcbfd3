#include "connector/text_cache.h"

#include <algorithm>

#include "common/check.h"
#include "common/string_util.h"
#include "text/analyzer.h"

namespace textjoin {

namespace {

/// Field/token separator inside qualified signature terms — same
/// unprintable byte CanonicalKey uses, so no quoting ambiguity.
constexpr char kQualifierSep = '\x1f';

std::string Qualified(const std::string& field, std::string_view token) {
  std::string out = field;
  out += kQualifierSep;
  out += token;
  return out;
}

void CollectSignature(const TextQuery& query, TermSignature& sig) {
  switch (query.kind()) {
    case TextQuery::Kind::kTerm:
      if (query.term_kind() == TermKind::kPrefix) {
        sig.prefixes.push_back(Qualified(query.field(), ToLower(query.term())));
      } else {
        for (const std::string& token : AnalyzeTerm(query.term())) {
          sig.terms.push_back(Qualified(query.field(), token));
        }
      }
      return;
    case TextQuery::Kind::kNot:
      sig.universe_sensitive = true;
      break;
    default:
      break;
  }
  for (const TextQueryPtr& child : query.children()) {
    CollectSignature(*child, sig);
  }
}

void SortUnique(std::vector<std::string>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

}  // namespace

TermSignature SignatureOfQuery(const TextQuery& query) {
  TermSignature sig;
  CollectSignature(query, sig);
  SortUnique(sig.terms);
  SortUnique(sig.prefixes);
  return sig;
}

std::vector<std::string> WriteTermsOfDocument(const Document& doc) {
  std::vector<std::string> terms;
  std::string buffer;
  for (const auto& [field, values] : doc.fields) {
    buffer.clear();
    for (const TokenOccurrenceView& occ :
         AnalyzeFieldValueViews(values, buffer)) {
      terms.push_back(Qualified(field, occ.token));
    }
  }
  SortUnique(terms);
  return terms;
}

namespace {

/// Weight floor for the eviction-pressure ratio (a zero weight would make
/// a partition's share undefined).
constexpr double kMinTenantWeight = 1e-6;

// Rough resident-size model: container/bookkeeping overhead per entry plus
// the payload strings. Only relative sizes matter (budget pressure), so a
// simple model is enough — but it must be monotone in payload size.
constexpr size_t kEntryOverhead = 64;
constexpr size_t kPerStringOverhead = 16;

size_t StringBytes(const std::string& s) {
  return s.size() + kPerStringOverhead;
}

size_t SearchEntryBytes(const std::string& key,
                        const std::vector<std::string>& docids) {
  size_t bytes = kEntryOverhead + StringBytes(key);
  for (const std::string& docid : docids) bytes += StringBytes(docid);
  return bytes;
}

size_t DocumentEntryBytes(const std::string& key, const Document& doc) {
  size_t bytes = kEntryOverhead + StringBytes(key) + StringBytes(doc.docid);
  for (const auto& [field, values] : doc.fields) {
    bytes += StringBytes(field);
    for (const std::string& value : values) bytes += StringBytes(value);
  }
  return bytes;
}

size_t ProbeEntryBytes(const std::string& key) {
  return kEntryOverhead + StringBytes(key) + 1;
}

std::string Prefixed(char kind, const std::string& key) {
  std::string out(1, kind);
  out += key;
  return out;
}

/// Shared follower wait: blocks until the leader publishes, the flight is
/// abandoned, or the follower's own token fires. The flight is kept alive
/// by the shared_ptr captured in the wake-up callback, so a cancellation
/// racing with this frame's return can never touch a dead flight.
template <typename T>
std::optional<Result<T>> WaitFlight(
    const std::shared_ptr<TextCache::Flight<T>>& flight,
    const CancelToken& token) {
  auto registration = token.OnCancel([flight] {
    std::lock_guard<std::mutex> lock(flight->m);
    flight->cv.notify_all();
  });
  const auto wait_deadline = token.wait_deadline();
  std::unique_lock<std::mutex> lock(flight->m);
  const auto ready = [&flight, &token] {
    return flight->done || token.cancelled();
  };
  while (!flight->done) {
    if (wait_deadline != std::chrono::steady_clock::time_point::max()) {
      flight->cv.wait_until(lock, wait_deadline, ready);
    } else {
      flight->cv.wait(lock, ready);
    }
    if (flight->done) break;
    const Status cancel = token.Check();
    if (!cancel.ok()) return Result<T>(cancel);
  }
  if (flight->abandoned) return std::nullopt;
  return flight->result;
}

}  // namespace

std::string CacheStats::ToString() const {
  return "search=" + std::to_string(search_hits) + "/" +
         std::to_string(search_hits + search_misses) +
         " fetch=" + std::to_string(fetch_hits) + "/" +
         std::to_string(fetch_hits + fetch_misses) +
         " probe=" + std::to_string(probe_hits) + "/" +
         std::to_string(probe_hits + probe_misses) +
         " coalesced=" + std::to_string(coalesced) +
         " inserted=" + std::to_string(insertions) +
         " rejected=" + std::to_string(admission_rejects + stale_rejects) +
         " evicted=" + std::to_string(evictions) +
         " surgical=" + std::to_string(surgical_invalidations) +
         " flushed=" + std::to_string(epoch_flush_evictions) +
         " epoch=" + std::to_string(epoch) +
         " bytes=" + std::to_string(bytes) +
         " entries=" + std::to_string(entries);
}

std::string CacheActivity::ToString() const {
  return "search " + std::to_string(search_hits) + "/" +
         std::to_string(search_hits + search_misses) + " fetch " +
         std::to_string(fetch_hits) + "/" +
         std::to_string(fetch_hits + fetch_misses) + " probe " +
         std::to_string(probe_hits) + " coalesced " +
         std::to_string(coalesced);
}

TextCache::TextCache(CacheOptions options) : options_(std::move(options)) {}

TextCache::~TextCache() {
  // Flights hold shared_ptrs; any leader still in flight keeps its Flight
  // alive past our maps. Nothing to drain.
}

double TextCache::ModeledSaving(const Entry& entry) const {
  constexpr CostParams kCost;
  switch (entry.kind) {
    case 's':
      // A hit skips one invocation plus the short-form transmissions.
      // (The postings component also vanishes but its size is unknown at
      // this layer; the admission model stays conservative without it.)
      return kCost.invocation +
             kCost.short_form * static_cast<double>(entry.docids.size());
    case 'd':
      return kCost.long_form;
    case 'p':
      // A known probe outcome skips (at least) the probe invocation.
      return kCost.invocation;
  }
  return 0.0;
}

TenantId TextCache::PartitionKeyFor(const TenantId& tenant) const {
  return options_.partition_by_tenant ? tenant : TenantId();
}

TextCache::Partition& TextCache::PartitionFor(const TenantId& tenant) {
  const TenantId key = PartitionKeyFor(tenant);
  auto it = partitions_.find(key);
  if (it == partitions_.end()) {
    Partition part;
    auto weight = options_.tenant_weights.find(key);
    part.weight =
        weight != options_.tenant_weights.end() ? weight->second : 1.0;
    it = partitions_.emplace(key, std::move(part)).first;
  }
  return it->second;
}

size_t TextCache::ProtectedCapacityLocked(const Partition& part) const {
  if (options_.protected_fraction <= 0.0) return 0;
  double total = 0.0;
  for (const auto& [id, p] : partitions_) {
    total += std::max(p.weight, kMinTenantWeight);
  }
  const double share = static_cast<double>(options_.byte_budget) *
                       std::max(part.weight, kMinTenantWeight) / total;
  return static_cast<size_t>(options_.protected_fraction * share);
}

void TextCache::TouchLocked(Slot& slot) {
  Partition& part = partitions_.at(slot.owner);
  ++part.stats.hits;
  const size_t cap = ProtectedCapacityLocked(part);
  if (cap == 0) {
    // Plain LRU: recency promotion within the single probation list. (A
    // leftover protected entry — protected_fraction was lowered to 0 at
    // runtime is impossible since options_ is const — cannot occur.)
    part.probation.splice(part.probation.begin(), part.probation, slot.it);
    return;
  }
  if (slot.in_protected) {
    part.protected_q.splice(part.protected_q.begin(), part.protected_q,
                            slot.it);
    return;
  }
  // Probation hit: the entry has proven reuse — promote into the protected
  // segment (splice keeps the iterator valid across lists).
  part.protected_q.splice(part.protected_q.begin(), part.probation, slot.it);
  part.probation_bytes -= slot.it->bytes;
  part.protected_bytes += slot.it->bytes;
  slot.in_protected = true;
  // Keep the protected segment within its reserve by demoting its LRU tail
  // back to probation's FRONT: demoted entries outrank never-hit scan
  // traffic but are once again eviction-eligible.
  while (part.protected_bytes > cap && part.protected_q.size() > 1) {
    auto tail = std::prev(part.protected_q.end());
    auto idx = index_.find(tail->key);
    TEXTJOIN_CHECK(idx != index_.end(), "protected entry missing from index");
    part.probation.splice(part.probation.begin(), part.protected_q, tail);
    part.protected_bytes -= tail->bytes;
    part.probation_bytes += tail->bytes;
    idx->second.in_protected = false;
  }
}

void TextCache::RegisterSignatureLocked(const Entry& entry) {
  if (entry.kind != 's' && entry.kind != 'p') return;
  if (!entry.has_signature) {
    unsigned_keys_.insert(entry.key);
    return;
  }
  for (const std::string& term : entry.signature.terms) {
    keys_by_term_[term].insert(entry.key);
  }
  for (const std::string& prefix : entry.signature.prefixes) {
    prefix_keys_.emplace(prefix, entry.key);
  }
  if (entry.signature.universe_sensitive) universe_keys_.insert(entry.key);
}

void TextCache::UnregisterSignatureLocked(const Entry& entry) {
  if (entry.kind != 's' && entry.kind != 'p') return;
  if (!entry.has_signature) {
    unsigned_keys_.erase(entry.key);
    return;
  }
  for (const std::string& term : entry.signature.terms) {
    auto it = keys_by_term_.find(term);
    if (it == keys_by_term_.end()) continue;
    it->second.erase(entry.key);
    if (it->second.empty()) keys_by_term_.erase(it);
  }
  for (const std::string& prefix : entry.signature.prefixes) {
    prefix_keys_.erase({prefix, entry.key});
  }
  if (entry.signature.universe_sensitive) universe_keys_.erase(entry.key);
}

void TextCache::EraseSlotLocked(Index::iterator it) {
  Slot& slot = it->second;
  Partition& part = partitions_.at(slot.owner);
  const size_t bytes = slot.it->bytes;
  UnregisterSignatureLocked(*slot.it);
  if (slot.in_protected) {
    part.protected_bytes -= bytes;
    part.protected_q.erase(slot.it);
  } else {
    part.probation_bytes -= bytes;
    part.probation.erase(slot.it);
  }
  bytes_ -= bytes;
  index_.erase(it);
}

void TextCache::AdmitLocked(Entry entry, uint64_t epoch,
                            const TenantId& tenant, uint64_t pinned) {
  if (epoch != epoch_) {
    ++stats_.stale_rejects;
    return;
  }
  // A query pinned before the latest write computed its result against a
  // superseded corpus version: never let it publish over fresher state.
  // Checked BEFORE the refresh below, so a stale leader cannot replace a
  // newer entry either.
  if (pinned != kUnpinnedEpoch && last_write_epoch_ > pinned) {
    ++stats_.stale_rejects;
    return;
  }
  if (entry.bytes > options_.EffectiveMaxEntryBytes()) {
    ++stats_.admission_rejects;
    return;
  }
  // Modeled cost of keeping the entry resident (pressure on the budget),
  // scaling the admission threshold with entry size.
  constexpr double kBookkeepingSecondsPerByte = 1e-9;
  const double bookkeeping =
      kBookkeepingSecondsPerByte * static_cast<double>(entry.bytes);
  if (ModeledSaving(entry) - bookkeeping < options_.min_saving_seconds) {
    ++stats_.admission_rejects;
    return;
  }
  auto it = index_.find(entry.key);
  if (it != index_.end()) {
    // Refresh (e.g. two leaders raced with coalescing off): replace the
    // payload and promote to most-recent (re-entering through probation,
    // and re-owned by the inserting tenant).
    EraseSlotLocked(it);
  }
  entry.valid_from = last_write_epoch_;
  Partition& part = PartitionFor(tenant);
  bytes_ += entry.bytes;
  part.probation_bytes += entry.bytes;
  part.probation.push_front(std::move(entry));
  index_[part.probation.front().key] =
      Slot{PartitionKeyFor(tenant), false, part.probation.begin()};
  RegisterSignatureLocked(part.probation.front());
  ++stats_.insertions;
  ++part.stats.insertions;
  EvictToBudgetLocked();
}

void TextCache::EvictToBudgetLocked() {
  while (bytes_ > options_.byte_budget) {
    // The victim partition is the one most over its weighted share —
    // greatest bytes/weight; map order (smallest tenant id) breaks ties.
    Partition* victim = nullptr;
    double worst = -1.0;
    for (auto& [id, part] : partitions_) {
      if (part.bytes() == 0) continue;
      const double ratio = static_cast<double>(part.bytes()) /
                           std::max(part.weight, kMinTenantWeight);
      if (ratio > worst) {
        worst = ratio;
        victim = &part;
      }
    }
    if (victim == nullptr) return;
    // Probation (never-reused) entries go first; the protected segment is
    // touched only once probation is empty.
    Lru& seg =
        victim->probation.empty() ? victim->protected_q : victim->probation;
    size_t& seg_bytes = victim->probation.empty() ? victim->protected_bytes
                                                  : victim->probation_bytes;
    const Entry& evicted = seg.back();
    UnregisterSignatureLocked(evicted);
    bytes_ -= evicted.bytes;
    seg_bytes -= evicted.bytes;
    index_.erase(evicted.key);
    seg.pop_back();
    ++stats_.evictions;
    ++victim->stats.evictions;
  }
}

std::string TextCache::FlightKeyFor(const std::string& key, uint64_t pinned) {
  // Pin-qualified: queries pinned at different corpus versions must not
  // coalesce onto one another's results. '\x01' never appears in a
  // canonical key's kind prefix ('s'/'d'/'p' lead) or in decimal digits.
  return key + '\x01' + std::to_string(pinned);
}

void TextCache::ApplyWrite(const WriteInvalidation& write) {
  std::lock_guard<std::mutex> lock(mu_);
  last_write_epoch_ = std::max(last_write_epoch_, write.epoch);
  // Victim set: entries whose signature overlaps the write. Collected
  // before erasing — EraseSlotLocked mutates the reverse maps.
  std::set<std::string> victims(unsigned_keys_.begin(), unsigned_keys_.end());
  for (const std::string& term : write.terms) {
    auto tit = keys_by_term_.find(term);
    if (tit != keys_by_term_.end()) {
      victims.insert(tit->second.begin(), tit->second.end());
    }
    // Any cached prefix query whose prefix is a prefix of this term is
    // affected. Probe every prefix length of the qualified term; tokens
    // are short, so this stays O(len · log entries).
    for (size_t len = 1; len <= term.size(); ++len) {
      const std::string cand = term.substr(0, len);
      for (auto pit = prefix_keys_.lower_bound({cand, std::string()});
           pit != prefix_keys_.end() && pit->first == cand; ++pit) {
        victims.insert(pit->second);
      }
    }
  }
  if (write.universe_changed) {
    // NOT-bearing queries depend on the document universe itself.
    victims.insert(universe_keys_.begin(), universe_keys_.end());
  }
  for (const std::string& docid : write.docids) {
    const std::string key = Prefixed('d', docid);
    if (index_.count(key) != 0) victims.insert(key);
  }
  for (const std::string& key : victims) {
    auto it = index_.find(key);
    if (it == index_.end()) continue;
    EraseSlotLocked(it);
    ++stats_.surgical_invalidations;
  }
}

uint64_t TextCache::last_write_epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return last_write_epoch_;
}

TextCache::SearchTicket TextCache::BeginSearch(const std::string& canonical_key,
                                               const TenantId& tenant,
                                               uint64_t pinned) {
  const std::string key = Prefixed('s', canonical_key);
  SearchTicket ticket;
  ticket.pinned = pinned;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end() && ValidAtPin(*it->second.it, pinned)) {
    TouchLocked(it->second);  // Promote to most-recent (owner's partition).
    ticket.cached = it->second.it->docids;
    ++stats_.search_hits;
    return ticket;
  }
  // Pin-invisible entries (admitted after this query's snapshot) stay
  // resident for fresher queries; this one just misses.
  ++stats_.search_misses;
  ticket.epoch = epoch_;
  ticket.tenant = tenant;
  if (options_.coalesce) {
    auto [fit, inserted] =
        search_flights_.try_emplace(FlightKeyFor(key, pinned), nullptr);
    if (inserted) {
      fit->second = std::make_shared<SearchFlight>();
      ticket.flight = fit->second;
      ticket.leader = true;
    } else {
      ticket.flight = fit->second;
      ++stats_.coalesced;
    }
  } else {
    ticket.leader = true;
  }
  return ticket;
}

void TextCache::FinishSearch(const std::string& canonical_key,
                             const SearchTicket& ticket,
                             const Result<std::vector<std::string>>& result,
                             bool abandoned, const TermSignature* signature) {
  TEXTJOIN_CHECK(ticket.leader, "FinishSearch by a non-leader");
  const std::string key = Prefixed('s', canonical_key);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (result.ok()) {
      Entry entry;
      entry.key = key;
      entry.kind = 's';
      entry.docids = result.value();
      entry.bytes = SearchEntryBytes(key, entry.docids);
      if (signature != nullptr) {
        entry.signature = *signature;
        entry.has_signature = true;
      }
      AdmitLocked(std::move(entry), ticket.epoch, ticket.tenant,
                  ticket.pinned);
    }
    // Erased before waking the waiters: a follower that retakes leadership
    // re-enters BeginSearch and must find the slot free.
    search_flights_.erase(FlightKeyFor(key, ticket.pinned));
  }
  if (ticket.flight != nullptr) {
    std::lock_guard<std::mutex> flock(ticket.flight->m);
    ticket.flight->result = result;
    ticket.flight->done = true;
    ticket.flight->abandoned = abandoned;
    ticket.flight->cv.notify_all();
  }
}

std::optional<Result<std::vector<std::string>>> TextCache::WaitSearch(
    const std::shared_ptr<SearchFlight>& flight, const CancelToken& token) {
  return WaitFlight(flight, token);
}

TextCache::FetchTicket TextCache::BeginFetch(const std::string& docid,
                                             const TenantId& tenant,
                                             uint64_t pinned) {
  const std::string key = Prefixed('d', docid);
  FetchTicket ticket;
  ticket.pinned = pinned;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end() && ValidAtPin(*it->second.it, pinned)) {
    TouchLocked(it->second);
    ticket.cached = it->second.it->doc;
    ++stats_.fetch_hits;
    return ticket;
  }
  ++stats_.fetch_misses;
  ticket.epoch = epoch_;
  ticket.tenant = tenant;
  if (options_.coalesce) {
    auto [fit, inserted] =
        fetch_flights_.try_emplace(FlightKeyFor(key, pinned), nullptr);
    if (inserted) {
      fit->second = std::make_shared<FetchFlight>();
      ticket.flight = fit->second;
      ticket.leader = true;
    } else {
      ticket.flight = fit->second;
      ++stats_.coalesced;
    }
  } else {
    ticket.leader = true;
  }
  return ticket;
}

void TextCache::FinishFetch(const std::string& docid,
                            const FetchTicket& ticket,
                            const Result<Document>& result, bool abandoned) {
  TEXTJOIN_CHECK(ticket.leader, "FinishFetch by a non-leader");
  const std::string key = Prefixed('d', docid);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (result.ok()) {
      Entry entry;
      entry.key = key;
      entry.kind = 'd';
      entry.doc = result.value();
      entry.bytes = DocumentEntryBytes(key, *entry.doc);
      AdmitLocked(std::move(entry), ticket.epoch, ticket.tenant,
                  ticket.pinned);
    }
    fetch_flights_.erase(FlightKeyFor(key, ticket.pinned));
  }
  if (ticket.flight != nullptr) {
    std::lock_guard<std::mutex> flock(ticket.flight->m);
    ticket.flight->result = result;
    ticket.flight->done = true;
    ticket.flight->abandoned = abandoned;
    ticket.flight->cv.notify_all();
  }
}

std::optional<Result<Document>> TextCache::WaitFetch(
    const std::shared_ptr<FetchFlight>& flight, const CancelToken& token) {
  return WaitFlight(flight, token);
}

std::optional<bool> TextCache::LookupProbe(const std::string& canonical_key,
                                           uint64_t pinned) {
  const std::string key = Prefixed('p', canonical_key);
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end() && ValidAtPin(*it->second.it, pinned)) {
    TouchLocked(it->second);
    ++stats_.probe_hits;
    return it->second.it->probe_matched;
  }
  ++stats_.probe_misses;
  return std::nullopt;
}

void TextCache::InsertProbe(const std::string& canonical_key, uint64_t epoch,
                            bool matched, const TenantId& tenant,
                            uint64_t pinned, const TermSignature* signature) {
  Entry entry;
  entry.key = Prefixed('p', canonical_key);
  entry.kind = 'p';
  entry.probe_matched = matched;
  entry.bytes = ProbeEntryBytes(entry.key);
  if (signature != nullptr) {
    entry.signature = *signature;
    entry.has_signature = true;
  }
  std::lock_guard<std::mutex> lock(mu_);
  AdmitLocked(std::move(entry), epoch, tenant, pinned);
}

uint64_t TextCache::epoch() const {
  std::lock_guard<std::mutex> lock(mu_);
  return epoch_;
}

void TextCache::AdvanceEpoch() {
  std::lock_guard<std::mutex> lock(mu_);
  stats_.epoch_flush_evictions += index_.size();
  for (auto& [id, part] : partitions_) {
    // Partitions (weights, cumulative counters) survive the invalidation;
    // only resident entries drop.
    part.probation.clear();
    part.protected_q.clear();
    part.probation_bytes = 0;
    part.protected_bytes = 0;
  }
  index_.clear();
  keys_by_term_.clear();
  prefix_keys_.clear();
  universe_keys_.clear();
  unsigned_keys_.clear();
  bytes_ = 0;
  ++epoch_;
  ++stats_.invalidations;
  // In-flight leaders publish to their waiters as usual but their inserts
  // are rejected by the epoch check in AdmitLocked.
}

CacheStats TextCache::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats snapshot = stats_;
  snapshot.bytes = bytes_;
  snapshot.entries = index_.size();
  snapshot.epoch = epoch_;
  for (const auto& [id, part] : partitions_) {
    CachePartitionStats ps = part.stats;
    ps.bytes = part.bytes();
    ps.protected_bytes = part.protected_bytes;
    ps.entries = part.probation.size() + part.protected_q.size();
    snapshot.partitions.emplace(id, ps);
  }
  return snapshot;
}

// ---------------------------------------------------------------------------
// CachingTextSource

CachingTextSource::CachingTextSource(TextSource* inner,
                                     std::shared_ptr<TextCache> cache,
                                     TenantId tenant, uint64_t pinned_epoch)
    : TextSourceDecorator(inner),
      cache_(std::move(cache)),
      tenant_(std::move(tenant)),
      pinned_epoch_(pinned_epoch) {
  TEXTJOIN_CHECK(cache_ != nullptr, "CachingTextSource needs a cache");
}

Result<std::vector<std::string>> CachingTextSource::Search(
    const TextQuery& query) const {
  Outcome outcome;
  return SearchWithOutcome(query, &outcome);
}

Result<Document> CachingTextSource::Fetch(const std::string& docid) const {
  Outcome outcome;
  return FetchWithOutcome(docid, &outcome);
}

Result<std::vector<std::string>> CachingTextSource::SearchWithOutcome(
    const TextQuery& query, Outcome* outcome) const {
  const std::string key = query.CanonicalKey();
  const CancelToken& token = CurrentCancelToken();
  // Loop only re-enters after an abandoned flight (a cancelled leader):
  // each iteration either returns, or observed an abandonment — and the
  // follower that wins the next BeginSearch becomes the new leader, so the
  // stampede never hangs on a dead leader.
  while (true) {
    TextCache::SearchTicket ticket =
        cache_->BeginSearch(key, tenant_, pinned_epoch_);
    if (ticket.cached.has_value()) {
      *outcome = Outcome::kHit;
      search_hits_.fetch_add(1, std::memory_order_relaxed);
      return std::move(*ticket.cached);
    }
    if (!ticket.leader) {
      *outcome = Outcome::kCoalesced;
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      auto waited = TextCache::WaitSearch(ticket.flight, token);
      if (waited.has_value()) return *std::move(waited);
      // Leader abandoned the flight. Stop here if we were cancelled too;
      // otherwise contend for leadership.
      TEXTJOIN_RETURN_IF_ERROR(token.Check());
      continue;
    }
    *outcome = Outcome::kMiss;
    search_misses_.fetch_add(1, std::memory_order_relaxed);
    Result<std::vector<std::string>> result = inner_->Search(query);
    // A leader that errored out because its own query was cancelled must
    // not hand that kCancelled to coalesced followers from other queries.
    const bool abandoned = !result.ok() && token.cancelled();
    const TermSignature sig = SignatureOfQuery(query);
    cache_->FinishSearch(key, ticket, result, abandoned, &sig);
    return result;
  }
}

Result<Document> CachingTextSource::FetchWithOutcome(const std::string& docid,
                                                     Outcome* outcome) const {
  const CancelToken& token = CurrentCancelToken();
  while (true) {
    TextCache::FetchTicket ticket =
        cache_->BeginFetch(docid, tenant_, pinned_epoch_);
    if (ticket.cached.has_value()) {
      *outcome = Outcome::kHit;
      fetch_hits_.fetch_add(1, std::memory_order_relaxed);
      return std::move(*ticket.cached);
    }
    if (!ticket.leader) {
      *outcome = Outcome::kCoalesced;
      coalesced_.fetch_add(1, std::memory_order_relaxed);
      auto waited = TextCache::WaitFetch(ticket.flight, token);
      if (waited.has_value()) return *std::move(waited);
      TEXTJOIN_RETURN_IF_ERROR(token.Check());
      continue;
    }
    *outcome = Outcome::kMiss;
    fetch_misses_.fetch_add(1, std::memory_order_relaxed);
    Result<Document> result = inner_->Fetch(docid);
    const bool abandoned = !result.ok() && token.cancelled();
    cache_->FinishFetch(docid, ticket, result, abandoned);
    return result;
  }
}

CachingTextSource::ProbeTicket CachingTextSource::BeginProbe(
    const TextQuery& probe) const {
  ProbeTicket ticket;
  ticket.epoch = cache_->epoch();
  ticket.cached = cache_->LookupProbe(probe.CanonicalKey(), pinned_epoch_);
  return ticket;
}

void CachingTextSource::RecordProbe(const TextQuery& probe, uint64_t epoch,
                                    bool matched) const {
  const TermSignature sig = SignatureOfQuery(probe);
  cache_->InsertProbe(probe.CanonicalKey(), epoch, matched, tenant_,
                      pinned_epoch_, &sig);
}

void CachingTextSource::NoteProbeHit() const {
  probe_hits_.fetch_add(1, std::memory_order_relaxed);
}

CacheActivity CachingTextSource::activity() const {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  CacheActivity a;
  a.search_hits = search_hits_.load(kRelaxed);
  a.search_misses = search_misses_.load(kRelaxed);
  a.fetch_hits = fetch_hits_.load(kRelaxed);
  a.fetch_misses = fetch_misses_.load(kRelaxed);
  a.probe_hits = probe_hits_.load(kRelaxed);
  a.coalesced = coalesced_.load(kRelaxed);
  return a;
}

}  // namespace textjoin
