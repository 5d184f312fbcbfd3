#include "core/adaptive.h"

#include <set>
#include <unordered_map>
#include <utility>

#include "core/pipeline.h"

namespace textjoin {

Result<AdaptiveResult> ExecuteProbeRTPAdaptive(
    const ForeignJoinSpec& spec, const std::vector<Row>& left_rows,
    TextSource& source, PredicateMask probe_mask, size_t fetch_budget) {
  TEXTJOIN_RETURN_IF_ERROR(pipeline::ValidateProbeMask(spec, probe_mask));
  TEXTJOIN_ASSIGN_OR_RETURN(pipeline::ResolvedSpec rspec,
                            pipeline::ResolveSpec(spec));
  const PredicateMask all = FullMask(spec.joins.size());

  AdaptiveResult out;
  out.join.schema = rspec.output_schema;

  // Phase 1 — probes per distinct probe-column combination (short form),
  // in the groups' lexicographic order.
  const pipeline::KeyGroups probe_groups =
      pipeline::GroupRowsByTerms(rspec, left_rows, probe_mask);
  std::vector<std::vector<std::string>> probe_docs(probe_groups.size());
  std::set<std::string> distinct_candidates;
  for (size_t g = 0; g < probe_groups.size(); ++g) {
    TextQueryPtr probe =
        pipeline::BuildSearch(rspec, probe_groups.terms[g], probe_mask);
    TEXTJOIN_ASSIGN_OR_RETURN(probe_docs[g], source.Search(*probe));
    distinct_candidates.insert(probe_docs[g].begin(), probe_docs[g].end());
  }
  out.candidate_docs = distinct_candidates.size();

  if (out.candidate_docs <= fetch_budget) {
    // Phase 2a — within budget: fetch once per distinct doc and finish by
    // relational matching, exactly as P+RTP (residual terms prepared once
    // per matched row, fields once per fetched document).
    out.outcome = AdaptiveOutcome::kFetched;
    std::vector<size_t> prepared_rows;
    std::vector<size_t> first_prepared(probe_groups.size());
    for (size_t g = 0; g < probe_groups.size(); ++g) {
      first_prepared[g] = prepared_rows.size();
      if (probe_docs[g].empty()) continue;
      prepared_rows.insert(prepared_rows.end(), probe_groups.rows[g].begin(),
                           probe_groups.rows[g].end());
    }
    const pipeline::JoinTermMatcher matcher(rspec, left_rows, prepared_rows,
                                            all & ~probe_mask);
    struct Fetched {
      Document doc;
      std::vector<std::string> fields;  ///< matcher.PrepareDoc(doc).
    };
    std::unordered_map<std::string, Fetched> fetched;
    for (size_t g = 0; g < probe_groups.size(); ++g) {
      if (probe_docs[g].empty()) continue;
      std::vector<const Fetched*> combo_docs;
      for (const std::string& docid : probe_docs[g]) {
        auto it = fetched.find(docid);
        if (it == fetched.end()) {
          TEXTJOIN_ASSIGN_OR_RETURN(Document doc, source.Fetch(docid));
          std::vector<std::string> fields = matcher.PrepareDoc(doc);
          it = fetched
                   .emplace(docid, Fetched{std::move(doc), std::move(fields)})
                   .first;
        }
        combo_docs.push_back(&it->second);
      }
      pipeline::ChargeRelationalMatches(source, combo_docs.size());
      for (const Fetched* doc : combo_docs) {
        Row doc_row = pipeline::DocumentToRow(spec.text, doc->doc);
        const std::vector<size_t>& rows = probe_groups.rows[g];
        for (size_t j = 0; j < rows.size(); ++j) {
          if (matcher.Matches(first_prepared[g] + j, doc->fields)) {
            out.join.rows.push_back(ConcatRows(left_rows[rows[j]], doc_row));
          }
        }
      }
    }
    return out;
  }

  // Phase 2b — the estimates were wrong: switch to tuple substitution for
  // the tuples whose probes succeeded. No candidate is fetched; each full
  // search returns exactly the matching documents.
  out.outcome = AdaptiveOutcome::kSwitched;
  std::vector<Row> survivors;
  for (size_t g = 0; g < probe_groups.size(); ++g) {
    if (probe_docs[g].empty()) continue;
    for (size_t r : probe_groups.rows[g]) survivors.push_back(left_rows[r]);
  }
  TEXTJOIN_ASSIGN_OR_RETURN(
      ForeignJoinResult ts,
      ExecuteForeignJoin(JoinMethodKind::kTS, spec, survivors, source));
  out.join.rows = std::move(ts.rows);
  return out;
}

}  // namespace textjoin
