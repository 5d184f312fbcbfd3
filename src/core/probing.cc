#include <map>
#include <optional>

#include "core/pipeline.h"

namespace textjoin::pipeline {

namespace {

/// Extracts the probe-subset terms from the full-key terms (terms are
/// ordered by ascending predicate index; the probe mask selects a subset of
/// those indices).
std::vector<std::string> ProbeKeyOf(const std::vector<std::string>& full_terms,
                                    PredicateMask probe_mask,
                                    size_t num_predicates) {
  std::vector<std::string> key;
  size_t term_index = 0;
  for (size_t i = 0; i < num_predicates; ++i) {
    if ((probe_mask & (1u << i)) != 0) key.push_back(full_terms[term_index]);
    ++term_index;
  }
  return key;
}

}  // namespace

/// Section 3.3 — probing + tuple substitution, with the probe cache and
/// send-probe-only-after-failure policy of the paper's algorithm.
///
/// The search/probe sequence is inherently serial: whether a probe is sent
/// at all depends on the outcomes cached for *earlier* combinations, and
/// parallelizing it would change which invocations are issued (and so the
/// meter — the paper's core artifact). The chain therefore runs as ONE
/// SearchDispatch unit — but it never waits for fetches: each successful
/// search spawns its fetch units and moves straight to the next
/// combination, so the serial search chain overlaps all document
/// retrieval.
Result<ForeignJoinResult> RunPTS(MethodContext& ctx) {
  const ResolvedSpec& rspec = ctx.rspec;
  const ForeignJoinSpec& spec = *rspec.spec;
  StageScheduler& sched = ctx.sched;
  const PredicateMask mask = ctx.probe_mask;

  const StageScheduler::StageId sd_keys =
      ctx.AddStage(StageKind::kDistinctKeys, "all-preds");
  const StageScheduler::StageId sd_probe =
      ctx.AddStage(StageKind::kProbeFilter, "cache," + MaskToString(mask));
  const StageScheduler::StageId sd_build =
      ctx.AddStage(StageKind::kQueryBuild, "per-combination");
  const StageScheduler::StageId sd_search =
      ctx.AddStage(StageKind::kSearchDispatch, "serial-chain");
  const StageScheduler::StageId sd_fetch = ctx.AddStage(
      StageKind::kFetch,
      spec.need_document_fields ? "long-form" : "docid-only");
  const StageScheduler::StageId sd_assemble =
      ctx.AddStage(StageKind::kAssemble, "group-order");

  const GroupedSearches front = GroupAndBuildSearches(
      ctx, sd_keys, sd_build, FullMask(spec.joins.size()));
  // One entry per distinct probe key: how many full-key combinations still
  // share it — a probe is only worth sending if at least one *other*
  // combination could reuse its outcome (the paper's refinement for
  // grouped input) — and the outcome this query has learned for it, the
  // per-query probe cache of Section 3.3. Once built, the map is touched
  // only by the one serial search unit below, so it needs no lock.
  struct ProbeKeyState {
    size_t remaining_sharers = 0;
    std::optional<bool> outcome;  ///< True = the probe matches documents.
    TextQueryPtr probe;  ///< Built when the outcome is first looked up.
  };
  using ProbeKeyMap = std::map<std::vector<std::string>, ProbeKeyState>;
  ProbeKeyMap probe_keys;
  std::vector<ProbeKeyMap::value_type*> group_probe_key(front.size());
  {
    ScopedStageTimer timer(sd_probe, front.size());
    for (size_t g = 0; g < front.size(); ++g) {
      std::vector<std::string> key =
          ProbeKeyOf(front.groups.terms[g], mask, spec.joins.size());
      const auto entry = probe_keys.try_emplace(std::move(key)).first;
      ++entry->second.remaining_sharers;
      group_probe_key[g] = &*entry;
    }
  }

  DocFetcher fetcher(sched, sd_fetch, spec.text, spec.need_document_fields);
  std::vector<std::vector<size_t>> slots_per_group(front.size());
  sched.Spawn(sd_search, 0, [&]() -> Status {
    // Probe outcomes learned by EARLIER queries (the session store, when
    // one is attached) skip full searches / probe sends here, and outcomes
    // discovered here are recorded for later queries. With no store (or a
    // cold one) the chain is the paper's algorithm.
    for (size_t g = 0; g < front.size(); ++g) {
      const std::vector<std::string>& probe_terms = group_probe_key[g]->first;
      ProbeKeyState& key = group_probe_key[g]->second;
      --key.remaining_sharers;

      const bool looked_up = !key.outcome.has_value();
      if (looked_up) {
        if (key.probe == nullptr) {
          key.probe = BuildSearch(rspec, probe_terms, mask);
        }
        key.outcome = sched.KnownProbe(*key.probe);
      }
      const bool session_known = looked_up && key.outcome.has_value();
      if (key.outcome.has_value() && !*key.outcome) {  // Known fail-query.
        // The session store saved the full search for this combination.
        if (session_known) sched.NoteCacheHit(sd_search);
        continue;
      }

      // Full tuple-substitution search for this combination.
      Result<std::vector<std::string>> searched =
          sched.Search(sd_search, *front.searches[g]);
      if (!searched.ok()) {
        // Best-effort: drop the combination — and learn nothing about the
        // probe key (the outcome is unknown, so no probe is sent either).
        TEXTJOIN_RETURN_IF_ERROR(sched.HandleSourceFailure(
            searched.status(), /*affects_completeness=*/true));
        continue;
      }
      if (!searched->empty()) {
        // A successful full query implies the probe would succeed;
        // remember it without spending an invocation.
        key.outcome = true;
        if (looked_up && !session_known) sched.RecordProbe(*key.probe, true);
        slots_per_group[g] = fetcher.Fetch(*searched);
        continue;
      }
      // The full query failed. Send the probe (selections + probe-column
      // predicates, short form) so later agreeing combinations can be
      // skipped — but only if some combination still shares this probe key
      // and the outcome is not already known (so it was looked up above).
      if (!key.outcome.has_value() && key.remaining_sharers > 0) {
        Result<std::vector<std::string>> probe_docs =
            sched.Search(sd_probe, *key.probe);
        if (!probe_docs.ok()) {
          // The probe is purely advisory: its loss costs future skip
          // opportunities, never rows, so a recovering policy absorbs it.
          TEXTJOIN_RETURN_IF_ERROR(sched.HandleSourceFailure(
              probe_docs.status(), /*affects_completeness=*/false));
          continue;
        }
        key.outcome = !probe_docs->empty();
        sched.RecordProbe(*key.probe, *key.outcome);
      } else if (session_known && *key.outcome && key.remaining_sharers > 0) {
        // Without the session store a probe would have been sent here
        // (outcome unknown, sharers remain): a second saved invocation.
        sched.NoteCacheHit(sd_probe);
      }
    }
    return Status::OK();
  });
  TEXTJOIN_RETURN_IF_ERROR(sched.Wait());
  return AssembleGroupOrder(ctx, sd_assemble, front.groups, fetcher,
                            slots_per_group);
}

/// Section 3.3 — probing + relational text processing: one probe per
/// distinct probe-column combination; the documents each successful probe
/// matched are fetched (long form, deduplicated across probes) and matched
/// against the agreeing tuples in SQL.
///
/// Every probe unit requests its answer's documents through FetchOnce the
/// moment the answer arrives — so fetches for early probes overlap the
/// remaining probes. The fetched docid SET is schedule-independent
/// (first-requested wins only the slot number); the residual matching is
/// replayed serially in group order after the drain, exactly as the serial
/// interleaved loop would, so rows and meter totals are byte-identical.
Result<ForeignJoinResult> RunPRTP(MethodContext& ctx) {
  const ResolvedSpec& rspec = ctx.rspec;
  const ForeignJoinSpec& spec = *rspec.spec;
  StageScheduler& sched = ctx.sched;
  const PredicateMask mask = ctx.probe_mask;

  const StageScheduler::StageId sd_keys = ctx.AddStage(
      StageKind::kDistinctKeys, "probe-cols," + MaskToString(mask));
  const StageScheduler::StageId sd_build =
      ctx.AddStage(StageKind::kQueryBuild, "per-probe");
  const StageScheduler::StageId sd_search =
      ctx.AddStage(StageKind::kSearchDispatch, "per-probe");
  const StageScheduler::StageId sd_fetch =
      ctx.AddStage(StageKind::kFetch, "long-form,dedup");
  const StageScheduler::StageId sd_match =
      ctx.AddStage(StageKind::kMatch, "residual-preds");
  const StageScheduler::StageId sd_assemble =
      ctx.AddStage(StageKind::kAssemble, "group-order");

  const GroupedSearches front =
      GroupAndBuildSearches(ctx, sd_keys, sd_build, mask);
  const KeyGroups& groups = front.groups;
  DocFetcher fetcher(sched, sd_fetch, spec.text, /*long_form=*/true);
  std::vector<std::vector<size_t>> slots_per_group(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    sched.Spawn(sd_search, g, [&, g]() -> Status {
      // A probe known (from an earlier query) to have failed matches no
      // documents, so the whole group drops without a search. A known
      // success does not help: the docids are still needed, and those
      // come from the search cache.
      const TextQuery& probe = *front.searches[g];
      const std::optional<bool> known = sched.KnownProbe(probe);
      if (known.has_value() && !*known) {
        sched.NoteCacheHit(sd_search);
        return Status::OK();
      }
      Result<std::vector<std::string>> searched =
          sched.Search(sd_search, probe);
      if (!searched.ok()) {
        // Best-effort: the group's rows are missing from the answer.
        return sched.HandleSourceFailure(searched.status(),
                                         /*affects_completeness=*/true);
      }
      if (!known.has_value()) sched.RecordProbe(probe, !searched->empty());
      slots_per_group[g] = fetcher.FetchOnce(*searched);
      return Status::OK();
    });
  }
  TEXTJOIN_RETURN_IF_ERROR(sched.Wait());

  // Residual matching is fused with assembly: both replay group order, and
  // the probe already guaranteed the mask predicates. Matching work is
  // charged to the Match stage; the pass's wall-clock to Assemble.
  BatchAssembler assemble(ctx, sd_assemble);
  // The residual predicates' codes are read once for every outer tuple a
  // successful probe's documents are matched against — group by group, so
  // group g's tuples are the prepared rows from first_prepared[g] on — and
  // each fetched document's fields are prepared once, however many groups
  // it serves.
  std::vector<size_t> prepared_rows;
  std::vector<size_t> first_prepared(groups.size());
  for (size_t g = 0; g < groups.size(); ++g) {
    first_prepared[g] = prepared_rows.size();
    if (slots_per_group[g].empty()) continue;
    prepared_rows.insert(prepared_rows.end(), groups.rows[g].begin(),
                         groups.rows[g].end());
  }
  const JoinTermMatcher matcher(rspec, ctx.left, prepared_rows,
                                FullMask(spec.joins.size()) & ~mask);
  std::vector<std::vector<std::string>> prepared_docs(fetcher.size());
  for (size_t slot = 0; slot < prepared_docs.size(); ++slot) {
    const Document& doc = fetcher.doc(slot);
    if (!IsPlaceholderDoc(doc)) prepared_docs[slot] = matcher.PrepareDoc(doc);
  }
  // Each document row is staged once per (group, document) in a
  // single-slot batch and concatenated as a view against every matching
  // tuple, whose values are gathered only then.
  TupleBatch doc_row(spec.text.fields.size() + 1, 1);
  for (size_t g = 0; g < groups.size(); ++g) {
    if (slots_per_group[g].empty()) continue;  // Fail: tuples are skipped.
    uint64_t scanned = 0;
    for (size_t slot : slots_per_group[g]) {
      doc_row.Clear();
      if (!fetcher.AppendRow(slot, doc_row)) continue;  // Fetch was skipped.
      ++scanned;
      for (size_t j = 0; j < groups.rows[g].size(); ++j) {
        if (matcher.Matches(first_prepared[g] + j, prepared_docs[slot])) {
          TEXTJOIN_RETURN_IF_ERROR(
              assemble.AppendConcat(groups.rows[g][j], doc_row.row(0)));
        }
      }
    }
    sched.ChargeRelationalMatches(sd_match, scanned);
  }
  return assemble.Finish();
}

Result<RowIdSet> RunProbeReducer(StageScheduler& sched,
                                 const ForeignJoinSpec& spec,
                                 const RowIdSet& left,
                                 PredicateMask probe_mask,
                                 PipelineProfile* profile) {
  TEXTJOIN_RETURN_IF_ERROR(ValidateProbeMask(spec, probe_mask));
  TEXTJOIN_ASSIGN_OR_RETURN(ResolvedSpec rspec, ResolveSpec(spec));
  MethodContext ctx{rspec, left, probe_mask, sched, {}};
  ctx.stage_ids.reserve(3);
  const StageScheduler::StageId sd_keys = ctx.AddStage(
      StageKind::kDistinctKeys, "probe-cols," + MaskToString(probe_mask));
  const StageScheduler::StageId sd_build =
      ctx.AddStage(StageKind::kQueryBuild, "per-probe");
  const StageScheduler::StageId sd_probe =
      ctx.AddStage(StageKind::kProbeFilter, "reducer");

  const GroupedSearches front =
      GroupAndBuildSearches(ctx, sd_keys, sd_build, probe_mask);
  // Every distinct combination's probe is independent; overlap them.
  std::vector<char> matched(front.size(), 0);
  for (size_t g = 0; g < front.size(); ++g) {
    sched.Spawn(sd_probe, g, [&, g]() -> Status {
      // The reducer needs only the one-bit outcome, so BOTH known outcomes
      // (matched / failed) replace the probe invocation.
      const TextQuery& probe = *front.searches[g];
      if (std::optional<bool> known = sched.KnownProbe(probe)) {
        sched.NoteCacheHit(sd_probe);
        matched[g] = *known ? 1 : 0;
        return Status::OK();
      }
      Result<std::vector<std::string>> docids = sched.Search(sd_probe, probe);
      if (!docids.ok()) {
        // The reducer is advisory: an unknown probe outcome keeps the
        // rows (a weaker reduction, never a wrong answer), so any
        // recovering policy absorbs the failure.
        TEXTJOIN_RETURN_IF_ERROR(sched.HandleSourceFailure(
            docids.status(), /*affects_completeness=*/false));
        matched[g] = 1;
        return Status::OK();
      }
      sched.RecordProbe(probe, !docids->empty());
      matched[g] = docids->empty() ? 0 : 1;
      return Status::OK();
    });
  }
  TEXTJOIN_RETURN_IF_ERROR(sched.Wait());

  std::vector<bool> keep(left.size(), false);
  for (size_t g = 0; g < front.size(); ++g) {
    if (!matched[g]) continue;
    for (size_t t : front.groups.rows[g]) keep[t] = true;
  }
  std::vector<size_t> survivors;
  for (size_t t = 0; t < left.size(); ++t) {
    if (keep[t]) survivors.push_back(t);
  }
  if (profile != nullptr) *profile = sched.Profile(ctx.stage_ids);
  return left.Subset(survivors);
}

}  // namespace textjoin::pipeline

namespace textjoin {

Result<std::vector<Row>> ProbeSemiJoinReduce(
    const ForeignJoinSpec& spec, const std::vector<Row>& left_rows,
    TextSource& source, PredicateMask probe_mask, ThreadPool* pool,
    const FaultPolicy& policy, pipeline::PipelineProfile* stage_profile) {
  pipeline::StageScheduler sched(pool, source, policy);
  TEXTJOIN_ASSIGN_OR_RETURN(
      RowIdSet reduced,
      pipeline::RunProbeReducer(
          sched, spec, RowIdSet::BorrowedAll(spec.left_schema, left_rows),
          probe_mask, stage_profile));
  std::vector<Row> survivors;
  survivors.reserve(reduced.size());
  for (size_t t = 0; t < reduced.size(); ++t) {
    survivors.push_back(reduced.Gather(t));
  }
  return survivors;
}

}  // namespace textjoin
