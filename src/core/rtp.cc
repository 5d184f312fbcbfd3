#include "core/pipeline.h"

namespace textjoin::pipeline {

/// Section 3.2 — relational text processing: one selections-only search,
/// fetch every candidate's long form, and evaluate the join predicates by
/// SQL string matching on the relational side.
///
/// Composition: the single search unit chains one fetch unit per candidate,
/// and each fetch chains its document's match unit — so document d is being
/// string-matched while later candidates are still in flight. The meter
/// charges c_a per document scanned, mirroring the paper's "proportional to
/// the number of the documents" model; a per-document charge inside the
/// match unit sums to exactly the serial bulk charge (placeholder slots —
/// best-effort fetch skips — never reach a match unit, so they are neither
/// scanned nor charged). The outer tuples' join terms are prepared before
/// any unit spawns and each document's fields once in its match unit,
/// which records the tuples the document matched. Assembly replays
/// document order and gathers the rows of those tuples alone.
Result<ForeignJoinResult> RunRTP(MethodContext& ctx) {
  const ResolvedSpec& rspec = ctx.rspec;
  const ForeignJoinSpec& spec = *rspec.spec;
  StageScheduler& sched = ctx.sched;
  const PredicateMask all = FullMask(spec.joins.size());

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
    ScopedStageTimer timer(sched, sd_build, 1);
    search = BuildSearch(rspec, {}, 0);
  }
  // Match-stage work, though not a match unit: units stay one per document.
  const JoinTermMatcher matcher = [&] {
    ScopedStageTimer timer(sched, sd_match, /*units=*/0);
    return JoinTermMatcher(rspec, ctx.left, all);
  }();

  ForeignJoinResult result;
  result.schema = rspec.output_schema;

  // matches_per_doc is sized once by the search unit before any fetch unit
  // is spawned (scheduler handoff orders the resize before every unit that
  // indexes it); a deque keeps element addresses stable.
  DocFetcher fetcher(sched, sd_fetch);
  std::deque<DocMatches> matches_per_doc;
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
    const std::vector<std::string>& docids = *searched;
    matches_per_doc.resize(docids.size());
    for (size_t d = 0; d < docids.size(); ++d) {
      DocMatches* out = &matches_per_doc[d];
      fetcher.Fetch(docids[d], sd_match,
                    [&, out](const Document& doc) -> Status {
                      sched.ChargeRelationalMatches(sd_match, 1);
                      const std::vector<std::string> fields =
                          matcher.PrepareDoc(doc);
                      for (size_t t = 0; t < ctx.left.size(); ++t) {
                        if (matcher.Matches(t, fields)) {
                          out->tuples.push_back(t);
                        }
                      }
                      out->doc = &doc;
                      return Status::OK();
                    });
    }
    return Status::OK();
  });
  TEXTJOIN_RETURN_IF_ERROR(sched.Wait());

  ScopedStageTimer timer(sched, sd_assemble, 1);
  // Batched assembly replay of document order, with cancellation
  // checkpoints at batch boundaries; a matched document's row is staged
  // once in a single-slot batch.
  BatchAssembler assemble(sched, result.rows);
  TupleBatch doc_row(spec.text.fields.size() + 1, 1);
  for (const DocMatches& matches : matches_per_doc) {
    if (matches.tuples.empty()) continue;
    doc_row.Clear();
    AppendDocumentRow(spec.text, *matches.doc, doc_row);
    for (size_t t : matches.tuples) {
      TEXTJOIN_RETURN_IF_ERROR(
          assemble.AppendConcat(ctx.left, t, doc_row.row(0)));
    }
  }
  return result;
}

}  // namespace textjoin::pipeline
