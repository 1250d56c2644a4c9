#ifndef COTE_SERVICE_SERVICE_CORE_H_
#define COTE_SERVICE_SERVICE_CORE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/clock.h"
#include "common/status.h"
#include "core/statement_cache.h"
#include "core/time_model.h"
#include "service/admission.h"
#include "service/arrival_trace.h"
#include "service/outcome.h"
#include "service/scheduler.h"
#include "service/trip_tracker.h"
#include "session/session_pool.h"

namespace cote {

/// Where the simulated timeline's per-query service time comes from.
enum class ServiceTimeSource {
  /// Measured compile wall seconds (through the injected clock). The
  /// real-workload mode the bench uses.
  kClock,
  /// The admission-time prediction. Fully deterministic — the mode the
  /// virtual-clock tests use, and the timeline every policy comparison
  /// can replay bit-identically.
  kEstimate,
};

struct ServiceQueryRecord;

/// Per-terminal-record observer: invoked once per ticket with its final
/// record, in the order records are committed (Run: event order; the
/// async executor: ticket order at Drain; CompileBatch: input order). The
/// service-level analogue of the pipeline's stage observer — the hook
/// overload monitors watch shed and degradation decisions through,
/// without polling reports.
using ServiceOutcomeObserverFn = void (*)(void* ctx,
                                          const ServiceQueryRecord& record);

struct CompileServiceOptions {
  OptimizerOptions optimizer;
  PlanCounterOptions counter;
  /// Calibrated model behind the admission estimates.
  TimeModel time_model;
  /// Simulated compile servers (and pool sessions). <= 0 selects
  /// hardware concurrency, like SessionPool.
  int num_workers = 1;
  SchedulingPolicy policy = SchedulingPolicy::kFifo;
  ServiceTimeSource time_source = ServiceTimeSource::kClock;
  /// Clock behind every wall-time read the service makes; null selects
  /// the process SystemClock. Tests inject a VirtualClock.
  Clock* clock = nullptr;
  /// When set, Run() advances this clock along the simulated timeline
  /// (to each dispatch's finish time), so components sharing the clock
  /// observe simulation time instead of wall time.
  VirtualClock* drive_clock = nullptr;

  /// Statement cache in front of admission (estimation is skipped on a
  /// signature hit).
  bool enable_cache = true;
  size_t cache_capacity = 1024;
  /// Cache admission gate: only statements whose *predicted* compile
  /// seconds clear this threshold earn a cache slot (<= 0 admits all).
  /// Cheap statements are cheap to recompile; caching them evicts the
  /// entries whose reuse actually pays.
  double cache_admission_threshold_seconds = 0;

  AdmissionOptions admission;
  TripTrackerOptions trip_tracker;

  // ---- Overload resilience (DESIGN.md §16) -------------------------------
  /// Ready-queue capacity; 0 = unbounded (every overload knob below is
  /// then inert and the service behaves exactly as before this existed).
  size_t queue_capacity = 0;
  /// What a full queue does with the next submission. kBlock applies
  /// backpressure (Run stops admitting until a dispatch frees a slot; the
  /// async Submit blocks the caller); kReject and kShedLowestValue shed
  /// with a typed kUnavailable record instead.
  OverloadPolicy overload = OverloadPolicy::kBlock;
  /// Re-enqueue budget per ticket: a compile that fails with a transient
  /// Status (IsTransientFailure) is re-admitted at the next degradation
  /// tier up to this many times before the failure becomes permanent.
  /// Queue-wait patience itself comes from the admission LimitsPolicy
  /// (patience_factor) — estimate-derived, like everything else here.
  int max_retries = 0;
  /// Optional terminal-record observer (see ServiceOutcomeObserverFn).
  ServiceOutcomeObserverFn outcome_observer = nullptr;
  void* outcome_observer_ctx = nullptr;
  /// Async-only: with factor k > 0, AsyncCompileService::Drain acts as a
  /// cancellation supervisor and externally trips (ResourceBudget::
  /// TripExternal) any in-flight compile whose wall time exceeds
  /// patience * k. 0 disables; ignored by the simulated front-end, whose
  /// compiles run on the driver thread.
  double external_cancel_factor = 0;
  /// Supervisor poll interval while Drain waits (seconds).
  double cancel_poll_seconds = 0.002;
};

/// Everything the service did for one submission: exactly one terminal
/// record per ticket (retried attempts fold into the final one).
struct ServiceQueryRecord {
  size_t ticket = 0;  ///< index into the arrival trace
  int worker = 0;     ///< simulated server that ran the compile; -1 = shed
  int query_class = 0;

  // Simulated timeline (trace seconds).
  double arrival_seconds = 0;
  double start_seconds = 0;
  double finish_seconds = 0;
  double queue_seconds = 0;  ///< start - arrival: what p95 is taken over
  double service_seconds = 0;
  double deadline_seconds = 0;  ///< copied from the submission; <= 0 none

  // Admission outcome.
  double predicted_seconds = 0;
  bool estimated = false;
  bool cache_hit = false;
  bool cache_inserted = false;
  double headroom_multiplier = 1.0;
  ResourceLimits limits;

  // Compile outcome.
  Status status;  ///< OK, or why this compile failed (rest unaffected)
  bool degraded = false;
  BudgetLimit tripped_limit = BudgetLimit::kNone;
  CompileStage degraded_stage = CompileStage::kNone;
  /// Budget trip seen by the stage observer — also set on the kFail path,
  /// where no degraded result exists to carry it.
  bool budget_tripped = false;
  /// Pipeline stage events attributed to this dispatch via observer ctx.
  int stage_events = 0;

  // Overload outcome (DESIGN.md §16).
  /// The one terminal bucket this ticket landed in (== ClassifyRecord on
  /// the rest of this record — stored so reports are self-describing).
  ServiceOutcome outcome = ServiceOutcome::kServedFull;
  /// Degradation tier the *final* attempt ran at (ServiceTier as int;
  /// kShed for shed records).
  int tier = 0;
  /// Transient-failure re-enqueues this ticket consumed before the final
  /// attempt.
  int retries = 0;
};

/// Classifies a finished record into its terminal bucket. Pure function
/// of the record — every record is committed through it, so the async
/// taxonomy can be pinned field-for-field against the simulated oracle's.
ServiceOutcome ClassifyRecord(const ServiceQueryRecord& record);

/// Folds per-ticket outcomes (and retry attempts) into the burst
/// taxonomy; TotalTickets() == records.size() by construction.
OutcomeTaxonomy BuildTaxonomy(const std::vector<ServiceQueryRecord>& records);

/// \brief Outcome of one open-loop Run() over an arrival trace.
struct ServiceReport {
  /// Commit order: event order for the simulated Run (see
  /// CompileService::Run), ticket order for AsyncCompileService::Drain.
  std::vector<ServiceQueryRecord> records;
  double makespan_seconds = 0;              ///< last finish, trace seconds
  int64_t estimates = 0;
  int64_t cache_hits = 0;
  int64_t cache_insertions = 0;
  int64_t degraded = 0;
  int64_t failed = 0;  ///< records with a non-OK Status, sheds included
  int64_t deadline_misses = 0;
  /// One terminal bucket per ticket (BuildTaxonomy over `records`).
  OutcomeTaxonomy taxonomy;
  /// Coherent cache counters at the end of the run (all-zero when the
  /// cache is disabled).
  CacheStats cache_stats;
  /// Trip-rate tracker state per observed class at the end of the run.
  std::vector<TripRateTracker::ClassSnapshot> class_feedback;

  double QueriesPerSecond() const {
    return makespan_seconds > 0
               ? static_cast<double>(records.size()) / makespan_seconds
               : 0;
  }
  double MeanQueueSeconds() const;
  /// p95 of queue_seconds over all records (0 when empty).
  double P95QueueSeconds() const;
  /// p95 of queue_seconds over *served* records only (outcome kServedFull
  /// or kServedDegraded; 0 when none) — the overload bench's headline:
  /// under kShedLowestValue this stays bounded at 2x load while the
  /// unbounded-FIFO p95 grows with trace length.
  double P95ServedQueueSeconds() const;
};

/// Per-dispatch observer context: counts stage events and latches budget
/// trips for one queue entry only. ServiceCore::Dispatch installs one per
/// compile, so every execution path gathers identical trip evidence for
/// the tracker.
struct DispatchTrace {
  int events = 0;
  bool budget_tripped = false;
};

/// The StageObserverFn that fills a DispatchTrace (ctx points at one).
void DispatchTraceObserver(void* ctx, const StageEvent& event);

/// Cache admission policy of the service core: a statement earns a cache
/// slot only when its predicted compile seconds reach the threshold `ctx`
/// points at (a double — each core points it at its own options member,
/// so the gate stays adjustable without allocation).
bool ThresholdAdmission(void* ctx, uint64_t signature, double cost_seconds);

/// One admitted submission: what every dispatch and shed record of its
/// ticket reads.
struct AdmittedWork {
  Submission submission;
  AdmissionOutcome admission;
  /// Arrival on the service timeline: the trace stamp (simulated Run),
  /// the wall offset from the burst epoch (async), 0 (closed-loop batch).
  double arrival_seconds = 0;
};

/// \brief The decisions every service execution path shares.
///
/// CompileService::Run (a virtual-clock event loop), CompileService::
/// CompileBatch (the pool's threads) and AsyncCompileService (a worker
/// thread loop) each own one core and differ only in how they order and
/// time dispatches. Everything else lives here exactly once: admission
/// into a ReadyEntry, the patience demotion, the tier transform and the
/// compile, the shed record, the transient-retry rule, and the feedback
/// that closes the cache and trip-tracker loops.
///
/// Threading: Dispatch, Retry, ShedRecord and the static helpers only
/// read the core's immutable options and clock, so they may run on any
/// thread (each Dispatch on its own session). Admit and ApplyFeedback
/// touch the cache, the tracker and the admission stage's session, so
/// they run on one driver thread.
class ServiceCore {
 public:
  explicit ServiceCore(CompileServiceOptions options);

  // The constructor wires the admission stage to `&tracker_` and the
  // cache's admission policy to `&options_.cache_admission_threshold_
  // seconds` — pointers into this object's own members, so a moved-from
  // core would leave both reading freed memory.
  ServiceCore(const ServiceCore&) = delete;
  ServiceCore& operator=(const ServiceCore&) = delete;
  ServiceCore(ServiceCore&&) = delete;
  ServiceCore& operator=(ServiceCore&&) = delete;

  /// Runs estimate-first admission for `submission`; the work arrives at
  /// the submission's own arrival_seconds.
  AdmittedWork Admit(const Submission& submission);

  /// The ready-queue entry of `ticket`: ready at its arrival, keyed by
  /// its prediction, deadline and patience.
  static ReadyEntry MakeEntry(size_t ticket, const AdmittedWork& work);

  /// The tier `entry` dispatches at by service time `now`: its queued
  /// tier demoted once per whole patience interval waited, capped at
  /// kShed (shed without compiling).
  static int DispatchTier(const ReadyEntry& entry, double now);

  /// Terminal record of a ticket that never compiled (worker -1, tier
  /// kShed, no service time), shed at service time `at` by a full queue
  /// or, with `expired`, by waiting past the bottom of the ladder.
  ServiceQueryRecord ShedRecord(const ReadyEntry& entry,
                                const AdmittedWork& work, double at,
                                bool expired) const;

  /// Compiles `work` on `session` at degradation tier `tier`, starting at
  /// service time `start_seconds`, and returns its record (the caller
  /// sets `worker`). The tier picks the compile: full derived limits,
  /// halved limits, or the ungoverned greedy-only path. A DispatchTrace
  /// observer attributes this compile's stage events and budget trips to
  /// the record. The compile result itself goes to `result` when given.
  /// Touches only `session` and stack-local state — no lock, no
  /// allocation (tools/hotpath_lint.py manifests it).
  ServiceQueryRecord Dispatch(CompilationSession& session,
                              const ReadyEntry& entry,
                              const AdmittedWork& work, int tier,
                              double start_seconds,
                              StatusOr<OptimizeResult>* result = nullptr) const;

  /// The bounded retry rule: a transient failure with retries left comes
  /// back as the entry to re-enqueue one tier down, ready at
  /// `ready_seconds` (capacity-blind — the ticket paid admission once).
  /// nullopt means `record` is terminal.
  std::optional<ReadyEntry> Retry(const ReadyEntry& entry,
                                  const ServiceQueryRecord& record,
                                  double ready_seconds) const;

  /// Commits a terminal record to `report`: closes both feedback loops,
  /// classifies it, counts it, appends it and notifies the outcome
  /// observer. Feedback is for compiled records only — sheds never ran,
  /// so their !ok status skips the cache and their unlimited limits skip
  /// the tracker. Cache: store what `query` cost, gated (inside the
  /// cache) on what admission predicted. Tracker: an armed compile that
  /// tripped its *applied* budget is evidence the estimator runs low for
  /// the class — a greedy-tier run applied no budget, so it is silent.
  void ApplyFeedback(const QueryGraph& query, ServiceQueryRecord record,
                     ServiceReport* report);

  /// Fills the end-of-run fields of `report`: taxonomy, cache stats and
  /// the tracker snapshot.
  void FinishReport(ServiceReport* report) const;

  const CompileServiceOptions& options() const { return options_; }
  Clock* clock() const { return clock_; }
  /// Null when the cache is disabled.
  CompileTimeCache* cache() { return cache_.get(); }
  const TripRateTracker& tracker() const { return tracker_; }
  SessionPool& pool() { return pool_; }

 private:
  CompileServiceOptions options_;
  Clock* clock_;  // never null after construction
  std::unique_ptr<CompileTimeCache> cache_;  // null when disabled
  TripRateTracker tracker_;
  AdmissionStage admission_;
  SessionPool pool_;
};

}  // namespace cote

#endif  // COTE_SERVICE_SERVICE_CORE_H_
