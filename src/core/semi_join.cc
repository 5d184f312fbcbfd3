#include "core/pipeline.h"

namespace textjoin::pipeline {

/// Section 3.2 — semi-join: OR-batched searches under the term limit M,
/// doc-side semi-join output. Batches are issued concurrently and each
/// batch's fetches start the moment its answer arrives, overlapping the
/// remaining batch searches (SpawnOrBatches). Distinct docids are fetched
/// once; assembly replays first-seen batch-major order against an all-NULL
/// left row.
Result<ForeignJoinResult> RunSJ(MethodContext& ctx) {
  const ForeignJoinSpec& spec = *ctx.rspec.spec;

  const StageScheduler::StageId sd_keys =
      ctx.AddStage(StageKind::kDistinctKeys, "all-preds");
  const StageScheduler::StageId sd_build =
      ctx.AddStage(StageKind::kQueryBuild, "or-batch+resplit");
  const StageScheduler::StageId sd_search =
      ctx.AddStage(StageKind::kSearchDispatch, "per-batch");
  const StageScheduler::StageId sd_fetch = ctx.AddStage(
      StageKind::kFetch,
      spec.need_document_fields ? "long-form,dedup" : "docid-only,dedup");
  const StageScheduler::StageId sd_assemble =
      ctx.AddStage(StageKind::kAssemble, "null-left,first-seen");

  DocFetcher fetcher(ctx.sched, sd_fetch, spec.text,
                     spec.need_document_fields);
  std::vector<std::vector<size_t>> answers;
  TEXTJOIN_RETURN_IF_ERROR(
      SpawnOrBatches(ctx, sd_keys, sd_build, sd_search, fetcher, answers));
  TEXTJOIN_RETURN_IF_ERROR(ctx.sched.Wait());

  BatchAssembler assemble(ctx, sd_assemble);
  const Row null_left(spec.left_schema.num_columns(), Value::Null());
  TupleBatch doc_row(spec.text.fields.size() + 1, 1);
  for (size_t slot : FirstSeenSlots(answers, fetcher.size())) {
    doc_row.Clear();
    if (!fetcher.AppendRow(slot, doc_row)) continue;  // Fetch was skipped.
    TEXTJOIN_RETURN_IF_ERROR(assemble.AppendConcat(null_left, doc_row.row(0)));
  }
  return assemble.Finish();
}

/// Section 3.2 — semi-join then relational text processing to recover the
/// (tuple, document) pairing for general (non-semi-join) queries. The same
/// OR-batch front as RunSJ; every distinct docid's fetch chains RTP's
/// match unit, so matching overlaps both the remaining fetches and the
/// remaining batch searches.
Result<ForeignJoinResult> RunSJRTP(MethodContext& ctx) {
  const ForeignJoinSpec& spec = *ctx.rspec.spec;

  const StageScheduler::StageId sd_keys =
      ctx.AddStage(StageKind::kDistinctKeys, "all-preds");
  const StageScheduler::StageId sd_build =
      ctx.AddStage(StageKind::kQueryBuild, "or-batch+resplit");
  const StageScheduler::StageId sd_search =
      ctx.AddStage(StageKind::kSearchDispatch, "per-batch");
  const StageScheduler::StageId sd_fetch =
      ctx.AddStage(StageKind::kFetch, "long-form,dedup");
  const StageScheduler::StageId sd_match =
      ctx.AddStage(StageKind::kMatch, "string-match");
  const StageScheduler::StageId sd_assemble =
      ctx.AddStage(StageKind::kAssemble, "first-seen");

  DocFetcher fetcher(ctx.sched, sd_fetch, spec.text, /*long_form=*/true);
  fetcher.MatchEach(sd_match, ctx.rspec, ctx.left);
  std::vector<std::vector<size_t>> answers;
  TEXTJOIN_RETURN_IF_ERROR(
      SpawnOrBatches(ctx, sd_keys, sd_build, sd_search, fetcher, answers));
  TEXTJOIN_RETURN_IF_ERROR(ctx.sched.Wait());
  return AssembleMatchedDocs(ctx, sd_assemble, fetcher,
                             FirstSeenSlots(answers, fetcher.size()));
}

}  // namespace textjoin::pipeline
