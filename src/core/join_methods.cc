#include "core/join_methods.h"

#include "core/pipeline.h"

namespace textjoin {

const char* JoinMethodName(JoinMethodKind kind) {
  switch (kind) {
    case JoinMethodKind::kTS:
      return "TS";
    case JoinMethodKind::kRTP:
      return "RTP";
    case JoinMethodKind::kSJ:
      return "SJ";
    case JoinMethodKind::kSJRTP:
      return "SJ+RTP";
    case JoinMethodKind::kPTS:
      return "P+TS";
    case JoinMethodKind::kPRTP:
      return "P+RTP";
  }
  return "?";
}

Result<ForeignJoinResult> ExecuteForeignJoin(
    JoinMethodKind method, const ForeignJoinSpec& spec,
    const std::vector<Row>& left_rows, TextSource& source,
    PredicateMask probe_mask, ThreadPool* pool, const FaultPolicy& policy,
    pipeline::PipelineProfile* stage_profile) {
  pipeline::StageScheduler sched(pool, source, policy);
  return pipeline::RunForeignJoin(
      sched, method, spec, RowIdSet::BorrowedAll(spec.left_schema, left_rows),
      probe_mask, stage_profile);
}

}  // namespace textjoin
