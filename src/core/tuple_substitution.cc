#include <algorithm>

#include "core/pipeline.h"

namespace textjoin::pipeline {

/// Section 3.1 — tuple substitution, one search per distinct combination of
/// the join columns (the distinct-tuple variant; tuples with NULL /
/// non-string join values cannot match and are never sent).
///
/// Composition: each combination's search unit spawns the fetch units for
/// its answer immediately, so combination k+1's search overlaps the fetches
/// of combination k — there is no per-phase barrier. Long forms are
/// retrieved per search (no cross-search cache), matching the paper's
/// c_l * V accounting for TS. Assembly replays the deterministic
/// (term-sorted) group order, so output ordering is identical to serial
/// execution.
Result<ForeignJoinResult> RunTS(MethodContext& ctx) {
  const ResolvedSpec& rspec = ctx.rspec;
  const ForeignJoinSpec& spec = *rspec.spec;
  StageScheduler& sched = ctx.sched;
  const PredicateMask all = FullMask(spec.joins.size());

  const StageScheduler::StageId sd_keys =
      ctx.AddStage(StageKind::kDistinctKeys, "all-preds");
  const StageScheduler::StageId sd_build =
      ctx.AddStage(StageKind::kQueryBuild, "per-combination");
  const StageScheduler::StageId sd_search =
      ctx.AddStage(StageKind::kSearchDispatch, "per-combination");
  const StageScheduler::StageId sd_fetch = ctx.AddStage(
      StageKind::kFetch,
      spec.need_document_fields ? "long-form" : "docid-only");
  const StageScheduler::StageId sd_assemble =
      ctx.AddStage(StageKind::kAssemble, "group-order");

  KeyGroups groups;
  {
    ScopedStageTimer timer(sched, sd_keys, 1);
    groups = GroupRowsByTerms(rspec, ctx.left, all);
  }
  std::vector<TextQueryPtr> searches;
  {
    ScopedStageTimer timer(sched, sd_build, groups.size());
    searches.reserve(groups.size());
    for (const std::vector<std::string>& terms : groups.terms) {
      searches.push_back(BuildSearch(rspec, terms, all));
    }
  }

  // Per-group answers: fetch slots when long forms are needed, the raw
  // docids otherwise. Slot-addressed so assembly is schedule-independent.
  DocFetcher fetcher(sched, sd_fetch);
  std::vector<std::vector<size_t>> slots_per_group(groups.size());
  std::vector<std::vector<std::string>> docids_per_group(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    sched.Spawn(sd_search, g, [&, g]() -> Status {
      Result<std::vector<std::string>> searched =
          sched.Search(sd_search, *searches[g]);
      if (!searched.ok()) {
        // Best-effort: the whole combination is dropped (its rows are
        // missing from the answer).
        return sched.HandleSourceFailure(searched.status(),
                                         /*affects_completeness=*/true);
      }
      docids_per_group[g] = *std::move(searched);
      if (spec.need_document_fields) {
        slots_per_group[g].reserve(docids_per_group[g].size());
        for (const std::string& docid : docids_per_group[g]) {
          slots_per_group[g].push_back(fetcher.Fetch(docid));
        }
      }
      return Status::OK();
    });
  }
  TEXTJOIN_RETURN_IF_ERROR(sched.Wait());

  ForeignJoinResult result;
  result.schema = rspec.output_schema;
  ScopedStageTimer timer(sched, sd_assemble, 1);
  // Batched assembly: each group's doc rows are staged once in a
  // TupleBatch (one flat allocation instead of one Row per document) and
  // the cross product is emitted through the assembler, which checkpoints
  // cancellation at batch boundaries.
  BatchAssembler assemble(sched, result.rows);
  const size_t text_width = spec.text.fields.size() + 1;
  for (size_t g = 0; g < groups.size(); ++g) {
    const size_t count = spec.need_document_fields
                             ? slots_per_group[g].size()
                             : docids_per_group[g].size();
    TupleBatch doc_rows(text_width, std::max<size_t>(1, count));
    if (spec.need_document_fields) {
      for (size_t slot : slots_per_group[g]) {
        const Document& doc = fetcher.doc(slot);
        if (IsPlaceholderDoc(doc)) continue;  // Best-effort fetch skip.
        AppendDocumentRow(spec.text, doc, doc_rows);
      }
    } else {
      for (const std::string& docid : docids_per_group[g]) {
        AppendDocidOnlyRow(spec.text, docid, doc_rows);
      }
    }
    if (doc_rows.empty()) continue;
    for (size_t r : groups.rows[g]) {
      for (size_t d = 0; d < doc_rows.size(); ++d) {
        TEXTJOIN_RETURN_IF_ERROR(
            assemble.AppendConcat(ctx.left, r, doc_rows.row(d)));
      }
    }
  }
  return result;
}

}  // namespace textjoin::pipeline
