#include "service/service_core.h"

#include <algorithm>

#include "common/str_util.h"

namespace cote {

namespace {

/// p95 of queue_seconds over records passing `served_only` filtering.
double P95Queue(const std::vector<ServiceQueryRecord>& records,
                bool served_only) {
  std::vector<double> q;
  q.reserve(records.size());
  for (const ServiceQueryRecord& r : records) {
    if (served_only && r.outcome != ServiceOutcome::kServedFull &&
        r.outcome != ServiceOutcome::kServedDegraded) {
      continue;
    }
    q.push_back(r.queue_seconds);
  }
  if (q.empty()) return 0;
  std::sort(q.begin(), q.end());
  // Nearest-rank p95: smallest value ≥ 95% of the sample.
  const size_t rank = (q.size() * 95 + 99) / 100;  // ceil(0.95 n)
  return q[rank == 0 ? 0 : rank - 1];
}

/// Whole patience intervals `entry` waited by service time `now` — the
/// tier demotion count. Patience <= 0 never demotes.
int Demotions(const ReadyEntry& entry, double now) {
  if (entry.patience_seconds <= 0) return 0;
  const double waited = now - entry.ready_seconds;
  if (waited < entry.patience_seconds) return 0;
  return static_cast<int>(waited / entry.patience_seconds);
}

/// The fields every terminal record of `entry` carries, dispatched or
/// shed: identity, arrival, and the admission outcome.
ServiceQueryRecord RecordFor(const ReadyEntry& entry,
                             const AdmittedWork& work) {
  const AdmissionOutcome& adm = work.admission;
  ServiceQueryRecord rec;
  rec.ticket = entry.ticket;
  rec.query_class = adm.query_class;
  rec.arrival_seconds = work.arrival_seconds;
  rec.deadline_seconds = work.submission.deadline_seconds;
  rec.predicted_seconds = adm.predicted_seconds;
  rec.estimated = adm.estimated;
  rec.cache_hit = adm.cache_hit;
  rec.headroom_multiplier = adm.headroom_multiplier;
  rec.retries = entry.retries;
  return rec;
}

}  // namespace

double ServiceReport::MeanQueueSeconds() const {
  if (records.empty()) return 0;
  double sum = 0;
  // det-ok: record-order fold of timeline arithmetic, order pinned by Run
  for (const ServiceQueryRecord& r : records) sum += r.queue_seconds;
  return sum / static_cast<double>(records.size());
}

double ServiceReport::P95QueueSeconds() const {
  return P95Queue(records, /*served_only=*/false);
}

double ServiceReport::P95ServedQueueSeconds() const {
  return P95Queue(records, /*served_only=*/true);
}

void DispatchTraceObserver(void* ctx, const StageEvent& event) {
  auto* trace = static_cast<DispatchTrace*>(ctx);
  ++trace->events;
  if (event.budget_tripped) trace->budget_tripped = true;
}

bool ThresholdAdmission(void* ctx, uint64_t /*signature*/,
                        double cost_seconds) {
  return cost_seconds >= *static_cast<const double*>(ctx);
}

ServiceOutcome ClassifyRecord(const ServiceQueryRecord& record) {
  // The two shed shapes are typed by construction: queue-full sheds carry
  // kUnavailable, expiry sheds sit at the ladder's bottom tier.
  if (record.status.code() == StatusCode::kUnavailable) {
    return ServiceOutcome::kShedQueueFull;
  }
  if (record.tier >= static_cast<int>(ServiceTier::kShed)) {
    return ServiceOutcome::kShedExpired;
  }
  if (!record.status.ok()) return ServiceOutcome::kFailedPermanent;
  if (record.degraded ||
      record.tier >= static_cast<int>(ServiceTier::kGreedyOnly)) {
    return ServiceOutcome::kServedDegraded;
  }
  return ServiceOutcome::kServedFull;
}

OutcomeTaxonomy BuildTaxonomy(const std::vector<ServiceQueryRecord>& records) {
  OutcomeTaxonomy out;
  for (const ServiceQueryRecord& r : records) {
    switch (r.outcome) {
      case ServiceOutcome::kServedFull:
        ++out.served_full;
        break;
      case ServiceOutcome::kServedDegraded:
        ++out.served_degraded;
        break;
      case ServiceOutcome::kShedQueueFull:
        ++out.shed_queue_full;
        break;
      case ServiceOutcome::kShedExpired:
        ++out.shed_expired;
        break;
      case ServiceOutcome::kFailedPermanent:
        ++out.failed_permanent;
        break;
    }
    out.retried += r.retries;
  }
  return out;
}

ServiceCore::ServiceCore(CompileServiceOptions options)
    : options_(std::move(options)),
      clock_(options_.clock != nullptr ? options_.clock : SystemClock::Get()),
      cache_(options_.enable_cache
                 ? std::make_unique<CompileTimeCache>(options_.cache_capacity)
                 : nullptr),
      tracker_(options_.trip_tracker),
      admission_(options_.optimizer, options_.counter, options_.time_model,
                 options_.admission, cache_.get(), &tracker_),
      pool_(options_.num_workers, options_.optimizer, options_.counter) {
  if (cache_ != nullptr) {
    cache_->SetAdmissionPolicy(
        &ThresholdAdmission, &options_.cache_admission_threshold_seconds);
  }
}

AdmittedWork ServiceCore::Admit(const Submission& submission) {
  AdmittedWork work;
  work.submission = submission;
  work.admission = admission_.Admit(*submission.query, submission.query_class);
  work.arrival_seconds = submission.arrival_seconds;
  return work;
}

ReadyEntry ServiceCore::MakeEntry(size_t ticket, const AdmittedWork& work) {
  ReadyEntry entry;
  entry.ticket = ticket;
  entry.ready_seconds = work.arrival_seconds;
  entry.predicted_seconds = work.admission.predicted_seconds;
  entry.deadline_seconds = work.submission.deadline_seconds;
  entry.patience_seconds = work.admission.patience_seconds;
  return entry;
}

int ServiceCore::DispatchTier(const ReadyEntry& entry, double now) {
  return std::min(static_cast<int>(ServiceTier::kShed),
                  entry.tier + Demotions(entry, now));
}

ServiceQueryRecord ServiceCore::ShedRecord(const ReadyEntry& entry,
                                           const AdmittedWork& work, double at,
                                           bool expired) const {
  ServiceQueryRecord rec = RecordFor(entry, work);
  rec.worker = -1;
  rec.start_seconds = at;
  rec.finish_seconds = at;
  rec.queue_seconds = at - work.arrival_seconds;
  rec.status =
      expired ? Status::DeadlineExceeded(StrFormat(
                    "queue wait %.3fs exhausted patience %.3fs ladder",
                    at - entry.ready_seconds, entry.patience_seconds))
              : Status::Unavailable(StrFormat(
                    "compile queue full (capacity %zu, policy %s)",
                    options_.queue_capacity,
                    OverloadPolicyName(options_.overload)));
  rec.tier = static_cast<int>(ServiceTier::kShed);
  return rec;
}

ServiceQueryRecord ServiceCore::Dispatch(
    CompilationSession& session, const ReadyEntry& entry,
    const AdmittedWork& work, int tier, double start_seconds,
    StatusOr<OptimizeResult>* result) const {
  const AdmissionOutcome& adm = work.admission;
  const QueryGraph& query = *work.submission.query;
  ServiceQueryRecord rec = RecordFor(entry, work);
  rec.start_seconds = start_seconds;
  rec.queue_seconds = start_seconds - work.arrival_seconds;
  rec.tier = tier;
  // The tier transform: full limits, halved limits, or the ungoverned
  // greedy-only compile.
  const bool greedy = tier == static_cast<int>(ServiceTier::kGreedyOnly);
  if (greedy) {
    rec.limits = ResourceLimits();
  } else if (tier == static_cast<int>(ServiceTier::kBudgetHalved)) {
    rec.limits = HalveLimits(adm.limits);
  } else {
    rec.limits = adm.limits;
  }

  // The observer ctx is stack-local, so this compile's stage events (and
  // any budget trip) land on this record however dispatches interleave.
  DispatchTrace trace;
  session.SetStageObserver(&DispatchTraceObserver, &trace);
  const double wall_before = clock_->NowSeconds();
  StatusOr<OptimizeResult> compiled =
      greedy ? session.OptimizeGreedy(query)
             : (rec.limits.Unlimited() ? session.Optimize(query)
                                       : session.Optimize(query, rec.limits));
  const double measured_seconds = clock_->NowSeconds() - wall_before;
  session.SetStageObserver(nullptr, nullptr);

  rec.stage_events = trace.events;
  rec.budget_tripped = trace.budget_tripped;
  if (compiled.ok()) {
    rec.degraded = compiled->degraded;
    rec.tripped_limit = compiled->tripped_limit;
    rec.degraded_stage = compiled->degraded_stage;
  } else {
    rec.status = compiled.status();
  }
  rec.service_seconds = options_.time_source == ServiceTimeSource::kClock
                            ? measured_seconds
                            : adm.predicted_seconds;
  rec.finish_seconds = start_seconds + rec.service_seconds;
  if (result != nullptr) *result = std::move(compiled);
  return rec;
}

std::optional<ReadyEntry> ServiceCore::Retry(const ReadyEntry& entry,
                                             const ServiceQueryRecord& record,
                                             double ready_seconds) const {
  if (record.status.ok() || !IsTransientFailure(record.status.code()) ||
      entry.retries >= options_.max_retries) {
    return std::nullopt;
  }
  ReadyEntry again = entry;
  again.ready_seconds = ready_seconds;
  again.tier =
      std::min(static_cast<int>(ServiceTier::kGreedyOnly), record.tier + 1);
  again.retries = entry.retries + 1;
  return again;
}

void ServiceCore::ApplyFeedback(const QueryGraph& query,
                                ServiceQueryRecord record,
                                ServiceReport* report) {
  if (cache_ != nullptr && !record.cache_hit && record.status.ok()) {
    record.cache_inserted = cache_->Insert(query, record.service_seconds,
                                           record.predicted_seconds);
  }
  if (!record.limits.Unlimited()) {
    tracker_.Record(record.query_class,
                    IsBudgetTrip(record.degraded, record.status,
                                 record.budget_tripped));
  }
  record.outcome = ClassifyRecord(record);

  if (record.estimated) ++report->estimates;
  if (record.cache_hit) ++report->cache_hits;
  if (record.cache_inserted) ++report->cache_insertions;
  if (record.degraded) ++report->degraded;
  if (!record.status.ok()) ++report->failed;
  if (record.deadline_seconds > 0 &&
      record.finish_seconds > record.deadline_seconds) {
    ++report->deadline_misses;
  }
  report->makespan_seconds =
      std::max(report->makespan_seconds, record.finish_seconds);
  report->records.push_back(std::move(record));
  if (options_.outcome_observer != nullptr) {
    options_.outcome_observer(options_.outcome_observer_ctx,
                              report->records.back());
  }
}

void ServiceCore::FinishReport(ServiceReport* report) const {
  report->taxonomy = BuildTaxonomy(report->records);
  if (cache_ != nullptr) report->cache_stats = cache_->Stats();
  report->class_feedback = tracker_.Snapshot();
}

}  // namespace cote
