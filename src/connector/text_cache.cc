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

size_t PayloadBytes(const TextCache::Docids& docids) {
  size_t bytes = 0;
  for (const std::string& docid : docids) bytes += StringBytes(docid);
  return bytes;
}

size_t PayloadBytes(const Document& doc) {
  size_t bytes = StringBytes(doc.docid);
  for (const auto& [field, values] : doc.fields) {
    bytes += StringBytes(field);
    for (const std::string& value : values) bytes += StringBytes(value);
  }
  return bytes;
}

size_t PayloadBytes(bool) { return 1; }

template <typename V>
size_t EntryBytes(const std::string& key, const V& payload) {
  return kEntryOverhead + StringBytes(key) + PayloadBytes(payload);
}

/// Entry keys carry their kind as a leading tag byte, so a search, a fetch
/// and a probe with the same text never share an entry or a flight.
constexpr char kSearchTag = 's';
constexpr char kDocumentTag = 'd';
constexpr char kProbeTag = 'p';

std::string EntryKey(char tag, const std::string& key) {
  std::string out;
  out.reserve(key.size() + 1);
  out += tag;
  out += key;
  return out;
}

/// What Begin<T> needs to know about an operation kind: its key tag and
/// its hit / miss counters.
template <typename T>
struct OpKind;
template <>
struct OpKind<TextCache::Docids> {
  static constexpr char kTag = kSearchTag;
  static constexpr uint64_t CacheStats::*kHits = &CacheStats::search_hits;
  static constexpr uint64_t CacheStats::*kMisses = &CacheStats::search_misses;
};
template <>
struct OpKind<Document> {
  static constexpr char kTag = kDocumentTag;
  static constexpr uint64_t CacheStats::*kHits = &CacheStats::fetch_hits;
  static constexpr uint64_t CacheStats::*kMisses = &CacheStats::fetch_misses;
};

}  // namespace

std::string CacheActivity::ToString() const {
  return "search " + std::to_string(search_hits) + "/" +
         std::to_string(search_hits + search_misses) + " fetch " +
         std::to_string(fetch_hits) + "/" +
         std::to_string(fetch_hits + fetch_misses) + " probe " +
         std::to_string(probe_hits) + " coalesced " +
         std::to_string(coalesced);
}

TextCache::TextCache(CacheOptions options) : options_(std::move(options)) {}

double TextCache::ModeledSaving(const Entry& entry) {
  constexpr CostParams kCost;
  if (const Docids* docids = std::get_if<Docids>(&entry.value)) {
    // A hit skips one invocation plus the short-form transmissions. (The
    // postings component also vanishes but its size is unknown at this
    // layer; the admission model stays conservative without it.)
    return kCost.invocation +
           kCost.short_form * static_cast<double>(docids->size());
  }
  if (std::holds_alternative<Document>(entry.value)) return kCost.long_form;
  // A known probe outcome skips (at least) the probe invocation.
  return kCost.invocation;
}

TextCache::Partition& TextCache::PartitionFor(const TenantId& tenant) {
  static const TenantId kShared;
  const TenantId& key = options_.partition_by_tenant ? tenant : kShared;
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

const TextCache::Entry* TextCache::FindLocked(const std::string& key,
                                              uint64_t pinned) {
  auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  if (pinned != kUnpinnedEpoch && pinned < it->second.it->valid_from) {
    return nullptr;
  }
  TouchLocked(it->second);  // Promote to most-recent (owner's partition).
  return &*it->second.it;
}

void TextCache::TouchLocked(Slot& slot) {
  Partition& part = *slot.owner;
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
  for (const std::string& term : entry.signature.terms) {
    keys_by_term_[term].insert(entry.key);
  }
  for (const std::string& prefix : entry.signature.prefixes) {
    prefix_keys_.emplace(prefix, entry.key);
  }
  if (entry.signature.universe_sensitive) universe_keys_.insert(entry.key);
}

void TextCache::UnregisterSignatureLocked(const Entry& entry) {
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
  const Slot slot = it->second;
  Partition& part = *slot.owner;
  const size_t bytes = slot.it->bytes;
  UnregisterSignatureLocked(*slot.it);
  index_.erase(it);
  if (slot.in_protected) {
    part.protected_bytes -= bytes;
    part.protected_q.erase(slot.it);
  } else {
    part.probation_bytes -= bytes;
    part.probation.erase(slot.it);
  }
  bytes_ -= bytes;
}

void TextCache::AdmitLocked(Entry entry, const TenantId& tenant,
                            uint64_t pinned) {
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
    // Refresh (e.g. leaders at two pins, or a probe outcome recorded
    // twice): replace the payload and promote to most-recent (re-entering
    // through probation, and re-owned by the inserting tenant).
    EraseSlotLocked(it);
  }
  entry.valid_from = last_write_epoch_;
  Partition& part = PartitionFor(tenant);
  bytes_ += entry.bytes;
  part.probation_bytes += entry.bytes;
  part.probation.push_front(std::move(entry));
  index_.emplace(part.probation.front().key,
                 Slot{&part, false, part.probation.begin()});
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

void TextCache::ApplyWrite(const WriteInvalidation& write) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.invalidations;
  last_write_epoch_ = std::max(last_write_epoch_, write.epoch);
  // Victim set: entries whose signature overlaps the write. Collected
  // (as copies) before erasing — EraseSlotLocked mutates the reverse maps
  // and frees the keys they view.
  std::set<std::string> victims;
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
      for (auto pit = prefix_keys_.lower_bound({cand, std::string_view()});
           pit != prefix_keys_.end() && pit->first == cand; ++pit) {
        victims.emplace(pit->second);
      }
    }
  }
  if (write.universe_changed) {
    // NOT-bearing queries depend on the document universe itself.
    victims.insert(universe_keys_.begin(), universe_keys_.end());
  }
  for (const std::string& docid : write.docids) {
    victims.insert(EntryKey(kDocumentTag, docid));
  }
  for (const std::string& key : victims) {
    auto it = index_.find(key);
    if (it == index_.end()) continue;
    EraseSlotLocked(it);
    ++stats_.surgical_invalidations;
  }
}

template <typename T>
TextCache::Ticket<T> TextCache::Begin(const std::string& key,
                                      const TenantId& tenant,
                                      uint64_t pinned) {
  std::string entry_key = EntryKey(OpKind<T>::kTag, key);
  Ticket<T> ticket;
  std::lock_guard<std::mutex> lock(mu_);
  if (const Entry* entry = FindLocked(entry_key, pinned)) {
    ticket.cached = std::get<T>(entry->value);
    ++(stats_.*OpKind<T>::kHits);
    return ticket;
  }
  ++(stats_.*OpKind<T>::kMisses);
  auto [it, inserted] = flights_.try_emplace({entry_key, pinned});
  if (!inserted) {
    if (it->second == nullptr) it->second = std::make_shared<Flight<T>>();
    ticket.flight = std::static_pointer_cast<Flight<T>>(it->second);
    ++stats_.coalesced;
    return ticket;
  }
  ticket.leader = true;
  ticket.key = std::move(entry_key);
  ticket.pinned = pinned;
  ticket.tenant = tenant;
  return ticket;
}

template <typename T>
void TextCache::Finish(Ticket<T>& ticket, const Result<T>& result,
                       TermSignature signature, bool abandoned) {
  TEXTJOIN_CHECK(ticket.leader, "Finish by a non-leader");
  // The entry is built before taking the lock: copying the payload is the
  // largest part of a miss.
  Entry entry;
  entry.key = std::move(ticket.key);
  if (result.ok()) {
    entry.value = result.value();
    entry.bytes = EntryBytes(entry.key, result.value());
    entry.signature = std::move(signature);
  }
  std::shared_ptr<void> joined;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Erased before waking the followers: one that retakes leadership
    // re-enters Begin and must find the slot free.
    auto it = flights_.find(FlightId{entry.key, ticket.pinned});
    TEXTJOIN_CHECK(it != flights_.end(), "leader ticket without a flight");
    joined = std::move(it->second);
    flights_.erase(it);
    if (result.ok()) {
      AdmitLocked(std::move(entry), ticket.tenant, ticket.pinned);
    }
  }
  if (joined == nullptr) return;  // No follower to wake.
  Flight<T>& flight = *std::static_pointer_cast<Flight<T>>(joined);
  std::lock_guard<std::mutex> flock(flight.m);
  if (!abandoned) flight.result = result;
  flight.done = true;
  flight.abandoned = abandoned;
  flight.cv.notify_all();
}

template <typename T>
std::optional<Result<T>> TextCache::Wait(const Ticket<T>& ticket,
                                         const CancelToken& token) {
  // The flight is kept alive by the shared_ptr captured in the wake-up
  // callback, so a cancellation racing with this frame's return can never
  // touch a dead flight.
  const std::shared_ptr<Flight<T>>& flight = ticket.flight;
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
  return *flight->result;
}

template TextCache::Ticket<TextCache::Docids> TextCache::Begin(
    const std::string&, const TenantId&, uint64_t);
template TextCache::Ticket<Document> TextCache::Begin(const std::string&,
                                                      const TenantId&,
                                                      uint64_t);
template void TextCache::Finish(Ticket<Docids>&, const Result<Docids>&,
                                TermSignature, bool);
template void TextCache::Finish(Ticket<Document>&, const Result<Document>&,
                                TermSignature, bool);
template std::optional<Result<TextCache::Docids>> TextCache::Wait(
    const Ticket<Docids>&, const CancelToken&);
template std::optional<Result<Document>> TextCache::Wait(
    const Ticket<Document>&, const CancelToken&);

std::optional<bool> TextCache::LookupProbe(const std::string& canonical_key,
                                           uint64_t pinned) {
  const std::string key = EntryKey(kProbeTag, canonical_key);
  std::lock_guard<std::mutex> lock(mu_);
  if (const Entry* entry = FindLocked(key, pinned)) {
    ++stats_.probe_hits;
    return std::get<bool>(entry->value);
  }
  ++stats_.probe_misses;
  return std::nullopt;
}

void TextCache::InsertProbe(const std::string& canonical_key, bool matched,
                            TermSignature signature, const TenantId& tenant,
                            uint64_t pinned) {
  Entry entry;
  entry.key = EntryKey(kProbeTag, canonical_key);
  entry.value = matched;
  entry.bytes = EntryBytes(entry.key, matched);
  entry.signature = std::move(signature);
  std::lock_guard<std::mutex> lock(mu_);
  AdmitLocked(std::move(entry), tenant, pinned);
}

CacheStats TextCache::Stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  CacheStats snapshot = stats_;
  snapshot.bytes = bytes_;
  snapshot.entries = index_.size();
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

template <typename T, typename Upstream, typename Signature>
Result<T> CachingTextSource::Serve(const std::string& key, Traffic& traffic,
                                   const Upstream& upstream,
                                   const Signature& signature,
                                   Outcome* outcome) const {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  const CancelToken& token = CurrentCancelToken();
  // Loop only re-enters after an abandoned flight (a cancelled leader):
  // each iteration either returns, or observed an abandonment — and the
  // follower that wins the next Begin becomes the new leader, so the
  // stampede never hangs on a dead leader.
  while (true) {
    TextCache::Ticket<T> ticket =
        cache_->Begin<T>(key, tenant_, pinned_epoch_);
    if (ticket.cached.has_value()) {
      *outcome = Outcome::kHit;
      traffic.hits.fetch_add(1, kRelaxed);
      return std::move(*ticket.cached);
    }
    if (!ticket.leader) {
      *outcome = Outcome::kCoalesced;
      coalesced_.fetch_add(1, kRelaxed);
      std::optional<Result<T>> waited = TextCache::Wait(ticket, token);
      if (waited.has_value()) return *std::move(waited);
      // Leader abandoned the flight. Stop here if we were cancelled too;
      // otherwise contend for leadership.
      TEXTJOIN_RETURN_IF_ERROR(token.Check());
      continue;
    }
    *outcome = Outcome::kMiss;
    traffic.misses.fetch_add(1, kRelaxed);
    Result<T> result = upstream();
    // A leader that errored out because its own query was cancelled must
    // not hand that kCancelled to coalesced followers from other queries.
    const bool abandoned = !result.ok() && token.cancelled();
    cache_->Finish(ticket, result,
                   result.ok() ? signature() : TermSignature(), abandoned);
    return result;
  }
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
  return Serve<TextCache::Docids>(
      query.CanonicalKey(), search_, [&] { return inner_->Search(query); },
      [&] { return SignatureOfQuery(query); }, outcome);
}

Result<Document> CachingTextSource::FetchWithOutcome(const std::string& docid,
                                                     Outcome* outcome) const {
  return Serve<Document>(
      docid, fetch_, [&] { return inner_->Fetch(docid); },
      [] { return TermSignature(); }, outcome);
}

std::optional<bool> CachingTextSource::BeginProbe(
    const TextQuery& probe) const {
  return cache_->LookupProbe(probe.CanonicalKey(), pinned_epoch_);
}

void CachingTextSource::RecordProbe(const TextQuery& probe,
                                    bool matched) const {
  cache_->InsertProbe(probe.CanonicalKey(), matched, SignatureOfQuery(probe),
                      tenant_, pinned_epoch_);
}

void CachingTextSource::NoteProbeHit() const {
  probe_hits_.fetch_add(1, std::memory_order_relaxed);
}

CacheActivity CachingTextSource::activity() const {
  constexpr auto kRelaxed = std::memory_order_relaxed;
  CacheActivity a;
  a.search_hits = search_.hits.load(kRelaxed);
  a.search_misses = search_.misses.load(kRelaxed);
  a.fetch_hits = fetch_.hits.load(kRelaxed);
  a.fetch_misses = fetch_.misses.load(kRelaxed);
  a.probe_hits = probe_hits_.load(kRelaxed);
  a.coalesced = coalesced_.load(kRelaxed);
  return a;
}

}  // namespace textjoin
