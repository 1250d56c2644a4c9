#include "session/session.h"

namespace cote {

namespace {

/// Folds one block's estimate into the multi-block total (sums, plus the
/// degraded flag: the total is degraded if any block was, carrying the
/// first tripped block's limit and stage).
void FoldBlock(const CompileTimeEstimate& e, CompileTimeEstimate* total) {
  total->plan_estimates += e.plan_estimates;
  total->enumeration.joins_unordered += e.enumeration.joins_unordered;
  total->enumeration.joins_ordered += e.enumeration.joins_ordered;
  total->enumeration.entries_created += e.enumeration.entries_created;
  total->estimated_seconds += e.estimated_seconds;
  total->estimation_seconds += e.estimation_seconds;
  total->estimated_memo_bytes += e.estimated_memo_bytes;
  total->plan_slots += e.plan_slots;
  total->completion_plans += e.completion_plans;
  if (e.degraded && !total->degraded) {
    total->degraded = true;
    total->tripped_limit = e.tripped_limit;
    total->degraded_stage = e.degraded_stage;
  }
}

}  // namespace

CompileTimeEstimate CompilationSession::Estimate(const MultiBlockQuery& query,
                                                 const TimeModel& time_model) {
  CompileTimeEstimate total;
  for (const QueryGraph* block : query.AllBlocks()) {
    FoldBlock(Estimate(*block, time_model), &total);
  }
  return total;
}

CompileTimeEstimate CompilationSession::Estimate(
    const MultiBlockQuery& query, const TimeModel& time_model,
    const ResourceLimits& limits) {
  CompileTimeEstimate total;
  for (const QueryGraph* block : query.AllBlocks()) {
    FoldBlock(Estimate(*block, time_model, limits), &total);
  }
  return total;
}

std::vector<StatusOr<OptimizeResult>> CompilationSession::CompileBatch(
    const std::vector<const QueryGraph*>& queries) {
  std::vector<StatusOr<OptimizeResult>> results;
  results.reserve(queries.size());
  for (const QueryGraph* q : queries) {
    if (q == nullptr) {
      results.push_back(Status::InvalidArgument("null query in batch"));
    } else {
      results.push_back(Optimize(*q));
    }
  }
  return results;
}

std::vector<StatusOr<OptimizeResult>> CompilationSession::CompileBatch(
    const std::vector<const QueryGraph*>& queries,
    const ResourceLimits& limits) {
  std::vector<StatusOr<OptimizeResult>> results;
  results.reserve(queries.size());
  for (const QueryGraph* q : queries) {
    if (q == nullptr) {
      results.push_back(Status::InvalidArgument("null query in batch"));
    } else {
      results.push_back(Optimize(*q, limits));
    }
  }
  return results;
}

std::vector<CompileTimeEstimate> CompilationSession::EstimateBatch(
    const std::vector<const QueryGraph*>& queries,
    const TimeModel& time_model) {
  std::vector<CompileTimeEstimate> results;
  results.reserve(queries.size());
  for (const QueryGraph* q : queries) {
    results.push_back(q == nullptr ? CompileTimeEstimate{}
                                   : Estimate(*q, time_model));
  }
  return results;
}

}  // namespace cote
