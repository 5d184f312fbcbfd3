#include "connector/remote_text_source.h"

#include <thread>

#include "connector/overload.h"

namespace textjoin {

namespace {

/// A hedge duplicate's traffic is real, but charging it to the main meter
/// would double-bill the logical operation (its primary already charges) —
/// the charge is diverted to the enclosing hedge attempt's waste meter.
AtomicAccessMeter& ChargeTarget(AtomicAccessMeter& main) {
  AtomicAccessMeter* waste = HedgeWasteMeter();
  return waste != nullptr ? *waste : main;
}

}  // namespace

Result<std::vector<std::string>> RemoteTextSource::Search(
    const TextQuery& query) const {
  if (latency_.search.count() > 0) std::this_thread::sleep_for(latency_.search);
  Result<EngineSearchResult> result = engine_->Search(query);
  if (!result.ok()) return result.status();
  ChargeTarget(charging_meter())
      .ChargeSearch(result->postings_processed, result->docs.size());
  std::vector<std::string> docids;
  docids.reserve(result->docs.size());
  for (DocNum num : result->docs) {
    docids.push_back(engine_->GetDocument(num).docid);
  }
  return docids;
}

MeteredTextSource* UnwrapMetered(TextSource* source) {
  while (source != nullptr) {
    if (auto* metered = dynamic_cast<MeteredTextSource*>(source)) {
      return metered;
    }
    auto* decorator = dynamic_cast<TextSourceDecorator*>(source);
    source = decorator != nullptr ? decorator->inner() : nullptr;
  }
  return nullptr;
}

Result<Document> RemoteTextSource::Fetch(const std::string& docid) const {
  if (latency_.fetch.count() > 0) std::this_thread::sleep_for(latency_.fetch);
  Result<DocNum> num = engine_->FindDocid(docid);
  if (!num.ok()) return num.status();
  ChargeTarget(charging_meter()).ChargeLongDoc();
  return engine_->GetDocument(*num);
}

}  // namespace textjoin
