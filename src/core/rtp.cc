#include "core/pipeline.h"

namespace textjoin::pipeline {

/// Section 3.2 — relational text processing: one selections-only search,
/// fetch every candidate's long form, and evaluate the join predicates by
/// SQL string matching on the relational side.
///
/// Composition: the single search unit chains one fetch unit per candidate,
/// and each fetch chains its document's match unit (DocFetcher::MatchEach)
/// — so document d is being string-matched while later candidates are
/// still in flight. The meter charges c_a per document scanned, mirroring
/// the paper's "proportional to the number of the documents" model; a
/// per-document charge inside the match unit sums to exactly the serial
/// bulk charge (placeholder slots — best-effort fetch skips — never reach a
/// match unit, so they are neither scanned nor charged). Assembly replays
/// document order and gathers the rows of the matched tuples alone.
Result<ForeignJoinResult> RunRTP(MethodContext& ctx) {
  const ForeignJoinSpec& spec = *ctx.rspec.spec;
  StageScheduler& sched = ctx.sched;

  const StageScheduler::StageId sd_build =
      ctx.AddStage(StageKind::kQueryBuild, "selections-only");
  const StageScheduler::StageId sd_search =
      ctx.AddStage(StageKind::kSearchDispatch, "single");
  const StageScheduler::StageId sd_fetch =
      ctx.AddStage(StageKind::kFetch, "long-form");
  const StageScheduler::StageId sd_match =
      ctx.AddStage(StageKind::kMatch, "string-match");
  const StageScheduler::StageId sd_assemble =
      ctx.AddStage(StageKind::kAssemble, "doc-order");

  TextQueryPtr search;
  {
    ScopedStageTimer timer(sd_build);
    search = BuildSearch(ctx.rspec, {}, 0);
  }
  DocFetcher fetcher(sched, sd_fetch, spec.text, /*long_form=*/true);
  fetcher.MatchEach(sd_match, ctx.rspec, ctx.left);
  // One search answers each docid once, so its slots are document order.
  std::vector<size_t> answer;
  sched.Spawn(sd_search, 0, [&]() -> Status {
    Result<std::vector<std::string>> searched =
        sched.Search(sd_search, *search);
    if (!searched.ok()) {
      // If the one search fails even under best-effort there is nothing to
      // degrade to: the whole candidate set is unknown, so the result is
      // empty and marked incomplete.
      return sched.HandleSourceFailure(searched.status(),
                                       /*affects_completeness=*/true);
    }
    answer = fetcher.Fetch(*searched);
    return Status::OK();
  });
  TEXTJOIN_RETURN_IF_ERROR(sched.Wait());
  return AssembleMatchedDocs(ctx, sd_assemble, fetcher, answer);
}

}  // namespace textjoin::pipeline
