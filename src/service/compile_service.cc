#include "service/compile_service.h"

#include <algorithm>
#include <optional>

#include "common/check.h"

namespace cote {

CompileService::CompileService(CompileServiceOptions options)
    : core_(std::move(options)) {}

ServiceReport CompileService::Run(const std::vector<Submission>& arrivals) {
  const CompileServiceOptions& options = core_.options();
  ServiceReport report;
  const size_t n = arrivals.size();
  report.records.reserve(n);
  std::vector<double> worker_free(
      static_cast<size_t>(core_.pool().num_workers()), 0);
  std::vector<AdmittedWork> work(n);
  ReadyQueue queue(options.policy, options.queue_capacity, options.overload);
  size_t next = 0;  // first not-yet-admitted arrival

  // Every path that finishes a ticket — served, failed, or shed — commits
  // through here, so "exactly one bucket per ticket" holds by
  // construction.
  auto commit = [&](ServiceQueryRecord rec) {
    core_.ApplyFeedback(*arrivals[rec.ticket].query, std::move(rec), &report);
  };

  // Admits every arrival at or before trace time `t` — admission runs at
  // arrival on the front end, so by the time a server picks, everything
  // that has arrived is in the ready queue with its estimate attached.
  // Under kBlock with a bounded queue the door closes while the queue is
  // full (backpressure: the submitter waits, so admission resumes only
  // after a dispatch frees a slot); under the shedding policies the
  // estimate is still paid first — the shed decision *is* estimate-derived
  // — and Offer says who, if anyone, was refused.
  auto admit_up_to = [&](double t) {
    while (next < n && arrivals[next].arrival_seconds <= t) {
      if (options.overload == OverloadPolicy::kBlock && queue.Full()) break;
      const Submission& s = arrivals[next];
      COTE_CHECK(s.query != nullptr);
      COTE_CHECK(next == 0 ||
                 s.arrival_seconds >= arrivals[next - 1].arrival_seconds);
      work[next] = core_.Admit(s);
      const OfferOutcome offer =
          queue.Offer(ServiceCore::MakeEntry(next, work[next]));
      ++next;
      if (offer.shed_incoming || offer.shed_existing) {
        // The shed instant is the incoming arrival's own timestamp: that
        // is when the queue was observed full.
        commit(core_.ShedRecord(offer.shed, work[offer.shed.ticket],
                                s.arrival_seconds, /*expired=*/false));
      }
    }
  };

  while (next < n || !queue.empty()) {
    // The server that frees first dispatches next (lowest index on ties —
    // a deterministic argmin).
    size_t w = 0;
    for (size_t k = 1; k < worker_free.size(); ++k) {
      if (worker_free[k] < worker_free[w]) w = k;
    }
    double t = worker_free[w];
    // An idle server with an empty queue jumps to the next arrival.
    if (queue.empty()) t = std::max(t, arrivals[next].arrival_seconds);
    admit_up_to(t);
    if (queue.empty()) continue;

    const ReadyEntry entry = queue.PopNext();
    const int tier = ServiceCore::DispatchTier(entry, t);
    if (tier >= static_cast<int>(ServiceTier::kShed)) {
      // The worker stays free at t and the loop immediately picks again.
      commit(core_.ShedRecord(entry, work[entry.ticket], t, /*expired=*/true));
      admit_up_to(t);  // the shed freed a slot — reopen the door
      continue;
    }

    // The real compile, on this simulated server's warm session.
    ServiceQueryRecord rec =
        core_.Dispatch(core_.pool().session(static_cast<int>(w)), entry,
                       work[entry.ticket], tier, t);
    rec.worker = static_cast<int>(w);
    worker_free[w] = rec.finish_seconds;
    if (options.drive_clock != nullptr) {
      options.drive_clock->SetAtLeast(rec.finish_seconds);
    }
    // A retried attempt commits no record; only the final attempt does.
    if (std::optional<ReadyEntry> again =
            core_.Retry(entry, rec, rec.finish_seconds)) {
      queue.Push(*again);
      continue;
    }
    commit(std::move(rec));
  }

  core_.FinishReport(&report);
  return report;
}

ServiceBatchResult CompileService::CompileBatch(
    const std::vector<const QueryGraph*>& queries) {
  const CompileServiceOptions& options = core_.options();
  ServiceBatchResult out;
  const size_t n = queries.size();
  out.results.assign(n, StatusOr<OptimizeResult>(
                            Status::Internal("query was not compiled")));
  std::vector<AdmittedWork> work(n);
  std::vector<ServiceQueryRecord> records(n);
  std::vector<ReadyEntry> dispatch;  // dispatch order
  dispatch.reserve(n);
  ReadyQueue queue(options.policy, options.queue_capacity, options.overload);

  // Closed-loop admission under a bounded queue. kBlock drains the queue
  // in capacity-sized windows (backpressure: the batch waits at the door,
  // nothing is lost); the shedding policies admit the whole batch through
  // Offer and the refused indices land as typed kUnavailable results —
  // under kShedLowestValue that keeps the best `capacity` submissions by
  // estimate-derived value.
  auto drain = [&] {
    while (!queue.empty()) dispatch.push_back(queue.PopNext());
  };
  for (size_t i = 0; i < n; ++i) {
    COTE_CHECK(queries[i] != nullptr);
    Submission s;
    s.query = queries[i];
    work[i] = core_.Admit(s);
    const ReadyEntry entry = ServiceCore::MakeEntry(i, work[i]);
    if (options.overload == OverloadPolicy::kBlock) {
      if (queue.Full()) drain();  // window boundary: free the whole queue
      queue.Push(entry);
      continue;
    }
    const OfferOutcome offer = queue.Offer(entry);
    if (offer.shed_incoming || offer.shed_existing) {
      const size_t shed = offer.shed.ticket;
      records[shed] = core_.ShedRecord(offer.shed, work[shed], 0,
                                       /*expired=*/false);
      out.results[shed] = records[shed].status;
    }
  }
  drain();

  // The policy-fixed dispatch order goes to the pool's real worker
  // threads; each item writes only its own input index.
  out.stats = core_.pool().RunBatch(
      dispatch.size(), [&](CompilationSession* session, size_t k) {
        const size_t i = dispatch[k].ticket;
        records[i] = core_.Dispatch(*session, dispatch[k], work[i],
                                    /*tier=*/0, /*start_seconds=*/0,
                                    &out.results[i]);
      });

  ServiceReport report;
  report.records.reserve(n);
  out.admissions.reserve(n);
  out.traces.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    out.admissions.push_back(work[i].admission);
    out.traces.push_back({records[i].stage_events, records[i].budget_tripped});
    core_.ApplyFeedback(*queries[i], std::move(records[i]), &report);
  }
  for (const ReadyEntry& entry : dispatch) out.schedule.push_back(entry.ticket);
  out.estimates = report.estimates;
  out.cache_hits = report.cache_hits;
  out.taxonomy = BuildTaxonomy(report.records);
  return out;
}

}  // namespace cote
