#ifndef COTE_SERVICE_COMPILE_SERVICE_H_
#define COTE_SERVICE_COMPILE_SERVICE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "service/service_core.h"

namespace cote {

/// Closed-loop batch outcome: compile results in *input* order, the
/// policy's dispatch order alongside.
struct ServiceBatchResult {
  std::vector<StatusOr<OptimizeResult>> results;   ///< input order
  std::vector<AdmissionOutcome> admissions;        ///< input order
  std::vector<size_t> schedule;  ///< input indices in dispatch order
  /// Stage events + observer-side budget-trip evidence, input order.
  std::vector<DispatchTrace> traces;
  BatchStats stats;
  int64_t estimates = 0;
  int64_t cache_hits = 0;
  /// Terminal buckets for the batch (no retries on the closed-loop path,
  /// so `retried` stays 0; sheds land at their input index as
  /// kUnavailable results).
  OutcomeTaxonomy taxonomy;
};

/// \brief The compile service front-end: estimate-first admission,
/// policy scheduling, estimate-derived budgets, estimate-gated caching.
///
/// Composes the layers built in PRs 3–7 into the server shape the paper's
/// §6 applications assume. Every submission is admitted through the warm
/// estimate path first (unless its signature hits the statement cache),
/// and that one cheap number then drives everything downstream:
///
///   * scheduling  — the ready queue pops by policy (FIFO baseline,
///     shortest-estimated-first, deadline-aware EDF);
///   * governance  — per-query ResourceLimits derived from the query's
///     own estimate (shared LimitsPolicy), widened per query class by the
///     trip-rate tracker when derived budgets keep tripping;
///   * caching     — statement-cache admission is gated on the predicted
///     compile cost clearing a threshold, so cheap-to-recompile
///     statements never displace expensive ones.
///
/// Run() replays an open-loop arrival trace against `num_workers`
/// simulated compile servers: the timeline (queueing, start/finish
/// times) is discrete-event simulated while the compiles themselves
/// execute for real through the pool's warm per-worker sessions on the
/// calling thread. With ServiceTimeSource::kEstimate and a VirtualClock
/// the whole run — dispatch order, every policy decision, every record —
/// is bit-identical across runs; with kClock the timeline carries
/// measured service times, which is what the throughput bench records.
/// Admission runs at arrival on the front end, off the workers' critical
/// path (the ~3% estimate cost is the paper's admission fee), so queue
/// latency is start − arrival.
///
/// CompileBatch() is the closed-loop sibling: admit and order the whole
/// batch by policy, then run the same ServiceCore::Dispatch per query on
/// the pool's real threads.
///
/// Overload resilience (DESIGN.md §16): with queue_capacity > 0 the ready
/// queue is bounded and the OverloadPolicy decides what a full queue does
/// (backpressure, typed rejection, or lowest-estimated-value shedding);
/// with a LimitsPolicy patience_factor each query's estimate also prices
/// its queue-wait patience, and a dispatch that waited k whole patience
/// intervals runs k tiers down the degradation ladder (full -> half
/// budget -> greedy-only -> shed). Transient failures re-enqueue one tier
/// down up to max_retries times. Every decision is a pure function of
/// trace time and queue contents, so overload runs replay bit-identically
/// under a VirtualClock, and the defaults (capacity 0, no patience, no
/// retries) reproduce the pre-overload service exactly.
///
/// Not thread-safe; one Run()/CompileBatch() at a time.
class CompileService {
 public:
  explicit CompileService(CompileServiceOptions options = {});

  // Neither copyable nor movable: the core it owns points into itself
  // (static-asserted in service_test.cc).
  CompileService(const CompileService&) = delete;
  CompileService& operator=(const CompileService&) = delete;
  CompileService(CompileService&&) = delete;
  CompileService& operator=(CompileService&&) = delete;

  /// Replays `arrivals` (ascending arrival_seconds; MakeOpenLoopTrace's
  /// output qualifies) through admission, the ready queue, and the
  /// simulated servers. A failing compile lands at its record with a
  /// Status; the queue keeps draining — the service stays usable, pinned
  /// by the fault-injection tests. Records are in event order: shed
  /// records commit when the shed happens (admission-time for queue-full
  /// sheds, dispatch-time for expiries), served ones at dispatch; exactly
  /// one terminal record per ticket either way.
  ServiceReport Run(const std::vector<Submission>& arrivals);

  /// Closed-loop batch: everything is ready at once, the policy orders
  /// it, the pool compiles it concurrently under per-query derived
  /// limits. Results in input order; feedback applies in input order once
  /// the whole batch has compiled. The pool's threads read the clock, so
  /// it must be thread-safe.
  ServiceBatchResult CompileBatch(
      const std::vector<const QueryGraph*>& queries);

  const CompileServiceOptions& options() const { return core_.options(); }
  /// Null when the cache is disabled.
  CompileTimeCache* cache() { return core_.cache(); }
  const TripRateTracker& tracker() const { return core_.tracker(); }
  SessionPool& pool() { return core_.pool(); }

 private:
  ServiceCore core_;
};

}  // namespace cote

#endif  // COTE_SERVICE_COMPILE_SERVICE_H_
