#ifndef COTE_SESSION_SESSION_H_
#define COTE_SESSION_SESSION_H_

#include <vector>

#include "common/status.h"
#include "core/time_model.h"
#include "optimizer/optimizer.h"
#include "query/multi_block.h"
#include "session/compilation_context.h"
#include "session/compilation_stats.h"
#include "session/pipeline.h"

namespace cote {

/// \brief One query-compilation session: the single entry point through
/// which everything in this library compiles or estimates a query.
///
///   CompilationSession session(options);
///   StatusOr<OptimizeResult> plan = session.Optimize(graph);   // plan mode
///   CompileTimeEstimate est = session.Estimate(graph, model);  // §3 mode
///
/// The session owns a CompilationContext (models, arenas, stats) and
/// drives the staged CompilationPipeline over it. Compiling a workload
/// through one session reuses the context's arenas across queries —
/// allocation-steady batch runs — and repeated estimates of the *same*
/// query are warm: zero steady-state allocations, enforced by
/// tests/session/session_alloc_test.cc. Results are bit-identical to
/// per-query construction throughout (the golden equivalence tests are
/// the oracle). Not thread-safe; use one session per thread.
class CompilationSession {
 public:
  explicit CompilationSession(OptimizerOptions options = {},
                              PlanCounterOptions counter_options = {})
      : context_(std::move(options), counter_options),
        pipeline_(&context_) {}

  // Not copyable/movable: the pipeline holds a pointer into the context.
  CompilationSession(const CompilationSession&) = delete;
  CompilationSession& operator=(const CompilationSession&) = delete;

  /// Plan mode: full compilation to an executable plan.
  StatusOr<OptimizeResult> Optimize(const QueryGraph& graph) {
    return pipeline_.CompilePlan(graph);
  }

  /// Plan mode under resource governance: the compile is cancelled
  /// cooperatively once `limits` trips, then either degrades to the
  /// greedy plan (BudgetAction::kGreedyFallback, the default — ok() with
  /// OptimizeResult::degraded set) or fails with the budget's Status.
  /// Unlimited limits behave exactly like the ungoverned overload.
  StatusOr<OptimizeResult> Optimize(const QueryGraph& graph,
                                    const ResourceLimits& limits) {
    return pipeline_.CompilePlan(graph, limits);
  }

  /// Greedy-only plan mode, ignoring the session's optimization level:
  /// the polynomial-time kLow pass with no estimation and no budget. The
  /// compile service's bottom degradation tier (see
  /// CompilationPipeline::CompilePlanGreedy).
  StatusOr<OptimizeResult> OptimizeGreedy(const QueryGraph& graph) {
    return pipeline_.CompilePlanGreedy(graph);
  }

  /// Estimate mode: the paper's plan-counting pass; `time_model` converts
  /// join-plan counts to seconds (§3.5).
  CompileTimeEstimate Estimate(const QueryGraph& graph,
                               const TimeModel& time_model) {
    return pipeline_.CompileEstimate(graph, time_model);
  }

  /// Governed estimate: a tripped limit ends the counting run early and
  /// returns the partial counts flagged CompileTimeEstimate::degraded.
  CompileTimeEstimate Estimate(const QueryGraph& graph,
                               const TimeModel& time_model,
                               const ResourceLimits& limits) {
    return pipeline_.CompileEstimate(graph, time_model, limits);
  }

  /// Multi-block queries (§3.3): each block is optimized with its own
  /// MEMO, so the estimates (plans, time, memory) sum over the blocks.
  CompileTimeEstimate Estimate(const MultiBlockQuery& query,
                               const TimeModel& time_model);

  /// Governed multi-block estimate: `limits` applies per block (each block
  /// re-arms the budget); `degraded` is set if any block tripped, carrying
  /// the first tripped block's limit and stage.
  CompileTimeEstimate Estimate(const MultiBlockQuery& query,
                               const TimeModel& time_model,
                               const ResourceLimits& limits);

  /// Serial batch: compiles each query in input order through this one
  /// session (null pointers yield a Status at their index). This is the
  /// single-threaded reference a SessionPool batch must be bit-identical
  /// to.
  std::vector<StatusOr<OptimizeResult>> CompileBatch(
      const std::vector<const QueryGraph*>& queries);

  /// Governed serial batch: `limits` applies per query, so one runaway
  /// query degrades (or fails) alone while the rest of the batch compiles
  /// normally — per-index isolation, pinned by the governance tests.
  std::vector<StatusOr<OptimizeResult>> CompileBatch(
      const std::vector<const QueryGraph*>& queries,
      const ResourceLimits& limits);

  /// Serial estimate batch, input order; null pointers yield the all-zero
  /// estimate.
  std::vector<CompileTimeEstimate> EstimateBatch(
      const std::vector<const QueryGraph*>& queries,
      const TimeModel& time_model);

  /// Installs (or removes, with fn = nullptr) a per-stage observer on the
  /// underlying pipeline; see CompilationPipeline::SetStageObserver.
  void SetStageObserver(StageObserverFn fn, void* ctx) {
    pipeline_.SetStageObserver(fn, ctx);
  }

  /// The models and options behind this session — the only sanctioned way
  /// to reach the cost/cardinality models outside src/session/.
  CompilationContext& context() { return context_; }
  const CompilationContext& context() const { return context_; }

  const CompilationStats& stats() const { return context_.stats(); }

 private:
  CompilationContext context_;
  CompilationPipeline pipeline_;
};

}  // namespace cote

#endif  // COTE_SESSION_SESSION_H_
