#include <algorithm>
#include <set>
#include <unordered_map>
#include <utility>

#include "core/pipeline.h"

namespace textjoin::pipeline {

namespace {

/// Builds the OR-batched search over the disjuncts [begin, end): the
/// selection terms AND'ed with the OR of the per-combination disjuncts.
TextQueryPtr BuildBatchQuery(
    const ResolvedSpec& rspec,
    const std::vector<std::vector<std::string>>& disjunct_terms,
    size_t begin, size_t end) {
  const ForeignJoinSpec& spec = *rspec.spec;
  const PredicateMask all = FullMask(spec.joins.size());
  std::vector<TextQueryPtr> disjuncts;
  disjuncts.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) {
    disjuncts.push_back(BuildDisjunct(rspec, disjunct_terms[i], all));
  }
  std::vector<TextQueryPtr> children;
  for (const TextSelection& sel : spec.selections) {
    children.push_back(TextQuery::Term(sel.field, sel.term));
  }
  children.push_back(TextQuery::Or(std::move(disjuncts)));
  return TextQuery::And(std::move(children));
}

/// Method-level recovery for an OR-batch whose search failed transiently
/// even through the resilience layer: split the disjunct range in half and
/// try each half, recursing on halves that fail again. The base case is a
/// single disjunct — one combination's per-tuple search; if even that
/// fails, best-effort drops the disjunct (recorded as a skipped batch
/// unit) while retry-then-fail propagates `failure`. Smaller searches give
/// genuinely better odds: fewer terms, shorter server time, and each
/// retry-wrapped sub-search gets a fresh retry budget. Recovery runs
/// inside the failed batch's own unit, so other batches' fetches proceed
/// concurrently; the sub-searches it issues depend only on this batch's
/// own outcomes, never on scheduling order.
Result<std::vector<std::string>> RecoverBatch(
    StageScheduler& sched, StageScheduler::StageId search_stage,
    const ResolvedSpec& rspec,
    const std::vector<std::vector<std::string>>& disjunct_terms,
    size_t begin, size_t end, Status failure) {
  const FaultPolicy& policy = sched.policy();
  if (end - begin == 1) {
    if (policy.best_effort()) {
      policy.NoteSkippedBatch(1);
      return std::vector<std::string>{};
    }
    return failure;
  }
  policy.NoteResplit();
  const size_t mid = begin + (end - begin) / 2;
  std::vector<std::string> docids;
  for (const auto& [half_begin, half_end] :
       {std::pair{begin, mid}, std::pair{mid, end}}) {
    Result<std::vector<std::string>> half = sched.Search(
        search_stage,
        *BuildBatchQuery(rspec, disjunct_terms, half_begin, half_end));
    if (!half.ok()) {
      if (!IsTransientError(half.status().code())) return half.status();
      TEXTJOIN_ASSIGN_OR_RETURN(
          half, RecoverBatch(sched, search_stage, rspec, disjunct_terms,
                             half_begin, half_end, half.status()));
    }
    docids.insert(docids.end(), half->begin(), half->end());
  }
  return docids;
}

/// The OR-batch plan: disjunct terms in deterministic group order, carved
/// into index ranges of at most batch_capacity disjuncts — keeping the
/// ranges, rather than sealed opaque queries, is what lets recovery
/// re-split a failed batch. Batch size respects the source's term limit M:
/// each batch spends the selection terms once plus k terms per disjunct
/// (paper Section 3.2: |Q|/M searches).
struct BatchPlan {
  std::vector<std::vector<std::string>> disjunct_terms;
  struct Range {
    size_t begin;
    size_t end;
  };
  std::vector<Range> ranges;
};

Result<BatchPlan> PlanBatches(
    MethodContext& ctx, std::vector<std::vector<std::string>> disjunct_terms) {
  const ForeignJoinSpec& spec = *ctx.rspec.spec;
  const size_t selection_terms = spec.selections.size();
  const size_t terms_per_disjunct = spec.joins.size();
  const size_t m = ctx.sched.source().max_search_terms();
  if (selection_terms + terms_per_disjunct > m) {
    return Status::ResourceExhausted(
        "one disjunct already exceeds the term limit M=" + std::to_string(m));
  }
  const size_t batch_capacity =
      std::max<size_t>(1, (m - selection_terms) / terms_per_disjunct);
  BatchPlan plan;
  plan.disjunct_terms = std::move(disjunct_terms);
  for (size_t b = 0; b < plan.disjunct_terms.size(); b += batch_capacity) {
    plan.ranges.push_back(
        {b, std::min(b + batch_capacity, plan.disjunct_terms.size())});
  }
  return plan;
}

/// Spawns one search unit per OR-batch. A unit that fails transiently under
/// a recovering policy re-splits itself (RecoverBatch); on success it
/// records the batch's answer slot and hands every docid not yet claimed by
/// a completed batch to `on_new_docid` (under `mu`) — that is where the
/// fetch units chain on. The set of docids handed over is the distinct
/// docid set of all answers (schedule-independent); the deterministic
/// first-seen *order* is recomputed from `answers` in batch-major order by
/// the assembly stage after the drain.
void SpawnBatchSearches(
    MethodContext& ctx, StageScheduler::StageId search_stage,
    const BatchPlan& plan, std::vector<std::vector<std::string>>& answers,
    std::mutex& mu, std::function<void(const std::string&)> on_new_docid) {
  // This frame is gone before the units run (they execute inside the
  // caller's Wait, or on pool threads): every capture must be a value or a
  // pointer to caller-owned state — never a reference to a parameter or
  // local of THIS function (a by-reference capture of the value parameter
  // `search_stage` reads a dead stack slot).
  StageScheduler* sched = &ctx.sched;
  const ResolvedSpec* rspec = &ctx.rspec;
  const BatchPlan* batches = &plan;
  std::mutex* answers_mu = &mu;
  for (size_t b = 0; b < plan.ranges.size(); ++b) {
    std::vector<std::string>* answer = &answers[b];
    sched->Spawn(search_stage, b,
                 [sched, search_stage, rspec, batches, answer, answers_mu, b,
                  on_new_docid]() -> Status {
      Result<std::vector<std::string>> searched = sched->Search(
          search_stage, *BuildBatchQuery(*rspec, batches->disjunct_terms,
                                         batches->ranges[b].begin,
                                         batches->ranges[b].end));
      if (!searched.ok()) {
        if (!sched->policy().recovers() ||
            !IsTransientError(searched.status().code())) {
          return searched.status();
        }
        Result<std::vector<std::string>> recovered = RecoverBatch(
            *sched, search_stage, *rspec, batches->disjunct_terms,
            batches->ranges[b].begin, batches->ranges[b].end,
            searched.status());
        if (!recovered.ok()) return recovered.status();
        searched = std::move(recovered);
      }
      *answer = *std::move(searched);
      std::lock_guard<std::mutex> lock(*answers_mu);
      for (const std::string& docid : *answer) {
        on_new_docid(docid);
      }
      return Status::OK();
    });
  }
}

}  // namespace

/// Section 3.2 — semi-join: OR-batched searches under the term limit M,
/// doc-side semi-join output. Batches are issued concurrently and each
/// batch's fetches start the moment its answer arrives, overlapping the
/// remaining batch searches. Distinct docids are fetched once; assembly
/// replays first-seen batch-major order against a null left row.
Result<ForeignJoinResult> RunSJ(MethodContext& ctx) {
  const ResolvedSpec& rspec = ctx.rspec;
  const ForeignJoinSpec& spec = *rspec.spec;
  StageScheduler& sched = ctx.sched;
  const PredicateMask all = FullMask(spec.joins.size());

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

  KeyGroups groups;
  {
    ScopedStageTimer timer(sched, sd_keys, 1);
    groups = GroupRowsByTerms(rspec, ctx.left, all);
  }
  BatchPlan plan;
  {
    ScopedStageTimer timer(sched, sd_build, 1);
    TEXTJOIN_ASSIGN_OR_RETURN(plan, PlanBatches(ctx, std::move(groups.terms)));
  }

  std::vector<std::vector<std::string>> answers(plan.ranges.size());
  DocFetcher fetcher(sched, sd_fetch);
  std::mutex mu;
  std::unordered_map<std::string, size_t> docid_slot;
  SpawnBatchSearches(ctx, sd_search, plan, answers, mu,
                     [&](const std::string& docid) {
                       if (docid_slot.count(docid) != 0) return;
                       const size_t slot = spec.need_document_fields
                                               ? fetcher.Fetch(docid)
                                               : docid_slot.size();
                       docid_slot.emplace(docid, slot);
                     });
  TEXTJOIN_RETURN_IF_ERROR(sched.Wait());

  ForeignJoinResult result;
  result.schema = rspec.output_schema;
  ScopedStageTimer timer(sched, sd_assemble, 1);
  // Batched first-seen replay with cancellation checkpoints at batch
  // boundaries; the doc-side row is staged in a single-slot batch so the
  // concat reads views, not freshly allocated Rows.
  BatchAssembler assemble(sched, result.rows);
  const Row null_left = NullLeftRow(spec.left_schema);
  TupleBatch doc_row(spec.text.fields.size() + 1, 1);
  std::set<std::string> seen;
  for (const std::vector<std::string>& docids : answers) {
    for (const std::string& docid : docids) {
      if (!seen.insert(docid).second) continue;
      doc_row.Clear();
      if (spec.need_document_fields) {
        const Document& doc = fetcher.doc(docid_slot.at(docid));
        if (IsPlaceholderDoc(doc)) continue;  // Best-effort fetch skip.
        AppendDocumentRow(spec.text, doc, doc_row);
      } else {
        AppendDocidOnlyRow(spec.text, docid, doc_row);
      }
      TEXTJOIN_RETURN_IF_ERROR(assemble.AppendConcat(null_left, doc_row.row(0)));
    }
  }
  return result;
}

/// Section 3.2 — semi-join then relational text processing to recover the
/// (tuple, document) pairing for general (non-semi-join) queries. Same
/// batch machinery as RunSJ; every distinct docid's fetch chains a string-
/// match unit, so matching overlaps both the remaining fetches and the
/// remaining batch searches.
Result<ForeignJoinResult> RunSJRTP(MethodContext& ctx) {
  const ResolvedSpec& rspec = ctx.rspec;
  const ForeignJoinSpec& spec = *rspec.spec;
  StageScheduler& sched = ctx.sched;
  const PredicateMask all = FullMask(spec.joins.size());

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

  KeyGroups groups;
  {
    ScopedStageTimer timer(sched, sd_keys, 1);
    groups = GroupRowsByTerms(rspec, ctx.left, all);
  }
  BatchPlan plan;
  {
    ScopedStageTimer timer(sched, sd_build, 1);
    TEXTJOIN_ASSIGN_OR_RETURN(plan, PlanBatches(ctx, std::move(groups.terms)));
  }

  std::vector<std::vector<std::string>> answers(plan.ranges.size());
  DocFetcher fetcher(sched, sd_fetch);
  // Prepared before any match unit spawns and read-only afterwards; timed
  // as Match-stage work, though not a match unit.
  const JoinTermMatcher matcher = [&] {
    ScopedStageTimer timer(sched, sd_match, /*units=*/0);
    return JoinTermMatcher(rspec, ctx.left, all);
  }();
  std::mutex mu;
  std::unordered_map<std::string, size_t> docid_slot;
  // Grown in lockstep with the fetch slots under `mu`; a deque keeps the
  // element addresses the match units write through stable.
  std::deque<DocMatches> matches_per_slot;
  SpawnBatchSearches(
      ctx, sd_search, plan, answers, mu, [&](const std::string& docid) {
        if (docid_slot.count(docid) != 0) return;
        DocMatches* out = &matches_per_slot.emplace_back();
        const size_t slot = fetcher.Fetch(
            docid, sd_match, [&, out](const Document& doc) -> Status {
              sched.ChargeRelationalMatches(sd_match, 1);
              const std::vector<std::string> fields = matcher.PrepareDoc(doc);
              for (size_t t = 0; t < ctx.left.size(); ++t) {
                if (matcher.Matches(t, fields)) out->tuples.push_back(t);
              }
              out->doc = &doc;
              return Status::OK();
            });
        docid_slot.emplace(docid, slot);
      });
  TEXTJOIN_RETURN_IF_ERROR(sched.Wait());

  ForeignJoinResult result;
  result.schema = rspec.output_schema;
  ScopedStageTimer timer(sched, sd_assemble, 1);
  // Batched first-seen replay with cancellation checkpoints; a matched
  // document's row is staged once in a single-slot batch.
  BatchAssembler assemble(sched, result.rows);
  TupleBatch doc_row(spec.text.fields.size() + 1, 1);
  std::set<std::string> seen;
  for (const std::vector<std::string>& docids : answers) {
    for (const std::string& docid : docids) {
      if (!seen.insert(docid).second) continue;
      const DocMatches& matches = matches_per_slot[docid_slot.at(docid)];
      if (matches.tuples.empty()) continue;
      doc_row.Clear();
      AppendDocumentRow(spec.text, *matches.doc, doc_row);
      for (size_t t : matches.tuples) {
        TEXTJOIN_RETURN_IF_ERROR(
            assemble.AppendConcat(ctx.left, t, doc_row.row(0)));
      }
    }
  }
  return result;
}

}  // namespace textjoin::pipeline
