#include "core/pipeline.h"

namespace textjoin::pipeline {

/// Section 3.1 — tuple substitution, one search per distinct combination of
/// the join columns (the distinct-tuple variant; tuples with NULL /
/// non-string join values cannot match and are never sent).
///
/// Composition: each combination's search unit spawns the fetch units for
/// its answer immediately, so combination k+1's search overlaps the fetches
/// of combination k — there is no per-phase barrier. Long forms are
/// retrieved per search (no cross-search dedup), matching the paper's
/// c_l * V accounting for TS. Assembly replays the deterministic
/// (term-sorted) group order, so output ordering is identical to serial
/// execution.
Result<ForeignJoinResult> RunTS(MethodContext& ctx) {
  const ForeignJoinSpec& spec = *ctx.rspec.spec;
  StageScheduler& sched = ctx.sched;

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

  const GroupedSearches front = GroupAndBuildSearches(
      ctx, sd_keys, sd_build, FullMask(spec.joins.size()));
  DocFetcher fetcher(sched, sd_fetch, spec.text, spec.need_document_fields);
  std::vector<std::vector<size_t>> slots_per_group(front.size());
  for (size_t g = 0; g < front.size(); ++g) {
    sched.Spawn(sd_search, g, [&, g]() -> Status {
      Result<std::vector<std::string>> searched =
          sched.Search(sd_search, *front.searches[g]);
      if (!searched.ok()) {
        // Best-effort: the whole combination is dropped (its rows are
        // missing from the answer).
        return sched.HandleSourceFailure(searched.status(),
                                         /*affects_completeness=*/true);
      }
      slots_per_group[g] = fetcher.Fetch(*searched);
      return Status::OK();
    });
  }
  TEXTJOIN_RETURN_IF_ERROR(sched.Wait());
  return AssembleGroupOrder(ctx, sd_assemble, front.groups, fetcher,
                            slots_per_group);
}

}  // namespace textjoin::pipeline
