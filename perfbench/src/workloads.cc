#include "workloads.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <set>

#include "bench/bench_util.h"
#include "core/regression.h"
#include "core/statement_cache.h"
#include "openloop.h"
#include "optimizer/enumerator.h"
#include "parser/binder.h"
#include "parser/parser.h"
#include "service/async_executor.h"
#include "service/compile_service.h"
#include "session/session.h"
#include "sqlgen.h"
#include "stats.h"
#include "trace.h"
#include "workload/workload.h"

namespace perfbench {
namespace {

using cote::Binder;
using cote::CompilationSession;
using cote::CompileTimeEstimate;
using cote::OptimizeResult;
using cote::OptimizerOptions;
using cote::OptimizeStats;
using cote::Parser;
using cote::QueryGraph;
using cote::Rng;
using cote::StatusOr;
using cote::TimeModel;

// ---- Workload constants ---------------------------------------------------

/// Set-up is repeated this many times per run; setup_s is the median.
constexpr int kSetups = 3;
/// The closed-loop workloads run every request this many times, in passes
/// over all of the run's requests, so a request's runs are spread over the
/// whole run, and record the best of them as its latency (and the best
/// Estimate call as its estimate time). On the shared virtual machine this
/// was tuned on, the same estimate of one n = 17 chain, pinned to one CPU,
/// took from 50 to 111 ms: the host's other tenants slow such code by up
/// to half in spells of a second to a minute, while an arithmetic loop
/// stays within 5%. Single timings swung run medians by 20-30% even when
/// the machine was calm; the best of four timings spread over the run is
/// slow only when most of the run is.
constexpr int kPasses = 4;
/// Exact-count metrics (joins ordered, MEMO entries) sum over this many
/// leading queries of the seeded sequence, which every run executes; the
/// DP-versus-greedy check compiles the same leading queries (the first
/// batch in warehouse-batch, every statement in service-openloop).
constexpr size_t kCountSet = 5;
/// Pool workers of warehouse-batch and service-openloop: with the client
/// thread that makes four busy threads, the machine's core count.
constexpr int kServiceWorkers = 3;
/// warehouse-batch: the fewest batches a run measures (enough for a p75
/// tail with ten batches beyond it), and the cycle of its large statements
/// (see NextBatch); a run measures whole cycles.
constexpr size_t kMinBatches = 48;
constexpr size_t kBatchCycle = 6;
/// Rank-parallel enumeration workers of dense-parallel (the calling thread
/// is one of them), and the number of distinct dense queries it cycles.
/// Three, not four: with every CPU in a rank barrier, any other process
/// preempting one worker stalls the whole barrier, which made the
/// estimate's tail swing by 2x between runs.
constexpr int kParallelWorkers = 3;
constexpr int kDenseQueries = 14;
constexpr int kDenseTables = 9;

/// service-openloop: the fixed ladder of offered rates (queries/s), each
/// rate's share of the run, and the limit on latency_tail_ms that a rate
/// must meet to count as sustained. The rates were set from the capacity
/// this workload measured at the commit that introduced the benchmark
/// (about 700 queries/s unpaced; the top rate is under a third of it, so
/// queueing does not amplify run-to-run CPU speed differences) and stay
/// fixed, so that every later commit is offered the same load.
constexpr double kRateLadder[] = {50, 100, 200};
constexpr double kRungShare[] = {0.25, 0.25, 0.5};
constexpr double kLatencyLimitMs = 100;
/// Distinct statements behind the service's Zipf draw, and its skew. A
/// large pool with a mild skew spreads each latency percentile over many
/// statements, so it does not hinge on the cost of one hot statement.
constexpr int kServiceStatements = 400;
constexpr double kZipfSkew = 0.8;
/// Statements (the hottest ranks) compiled in both modes after the run.
constexpr int kCheckStatements = 70;

// ---- Shared helpers -------------------------------------------------------

double PeakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

struct Catalogs {
  std::shared_ptr<cote::Catalog> synthetic =
      cote::MakeSyntheticCatalog(kSyntheticTables);
  std::shared_ptr<cote::Catalog> retail = cote::MakeRetailCatalog();
  std::shared_ptr<cote::Catalog> tpch = cote::MakeTpchCatalog();
  const cote::Catalog& For(Schema s) const {
    switch (s) {
      case Schema::kRetail:
        return *retail;
      case Schema::kTpch:
        return *tpch;
      case Schema::kSynthetic:
        break;
    }
    return *synthetic;
  }
};

/// Fits the §3.5 time model for `options` on the repository's training
/// workload: one warm-up and one timed compile per training query, then
/// the paper's intercept-free, relative-error regression.
TimeModel Calibrate(const OptimizerOptions& options) {
  cote::Workload training = cote::TrainingWorkload();
  CompilationSession session(options);
  cote::TimeModelCalibrator calibrator(/*with_intercept=*/false,
                                       /*relative_weighting=*/true);
  for (const QueryGraph& q : training.queries) {
    StatusOr<OptimizeResult> warm = session.Optimize(q);
    StatusOr<OptimizeResult> timed = session.Optimize(q);
    COTE_CHECK(warm.ok() && timed.ok());
    calibrator.AddObservation(timed->stats.join_plans_generated,
                              timed->stats.total_seconds);
  }
  StatusOr<TimeModel> model = calibrator.Fit();
  COTE_CHECK(model.ok());
  return *model;
}

/// Visitor that does nothing: RunEnumeration over it times the bare join
/// enumeration. Every entry reports a large cardinality, so the
/// cardinality-one Cartesian rule never fires here.
class NullVisitor final : public cote::JoinVisitor {
 public:
  void InitializeEntry(cote::TableSet) override {}
  double EntryCardinality(cote::TableSet) override { return 1e9; }
  void OnJoin(cote::TableSet, cote::TableSet, const std::vector<int>&,
              bool) override {}
};

/// Counts failed checks per request. A request fails when its status is
/// not OK or any of its checks fails.
class Checks {
 public:
  void Expect(bool ok, const std::string& what) {
    if (ok) return;
    request_ok_ = false;
    if (messages_.size() < 8) messages_.push_back(what);
  }
  void BeginRequest() { request_ok_ = true; }
  void EndRequest() {
    ++attempted_;
    if (!request_ok_) ++failed_;
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  void Fill(Report* report) const {
    report->attempted = attempted_;
    report->failed = failed_;
    report->failures = messages_;
  }

 private:
  bool request_ok_ = true;
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// The paper's exactness claims for one query compiled in both modes: the
/// estimate's HSJN count equals the HSJN plans generated (serial counting
/// is exact for hash joins) and both modes enumerate the same joins.
void CheckModesAgree(Checks* checks, const CompileTimeEstimate& est,
                     const OptimizeStats& plan, const std::string& label) {
  checks->Expect(est.plan_estimates.hsjn() == plan.join_plans_generated.hsjn(),
                 label + ": estimated HSJN plans " +
                     std::to_string(est.plan_estimates.hsjn()) +
                     " != generated " +
                     std::to_string(plan.join_plans_generated.hsjn()));
  checks->Expect(est.enumeration.joins_ordered ==
                     plan.enumeration.joins_ordered,
                 label + ": joins_ordered differs between estimate (" +
                     std::to_string(est.enumeration.joins_ordered) +
                     ") and plan mode (" +
                     std::to_string(plan.enumeration.joins_ordered) + ")");
}

/// The DP plan may not cost more than the greedy plan for the same query.
/// The greedy pass plans only the join core (it skips GROUP BY / ORDER BY
/// completion), so both optimizers compile the statement's join core here,
/// on the check session and outside any timed window.
void CheckNotWorseThanGreedy(Checks* checks, CompilationSession* session,
                             const cote::Catalog& catalog,
                             const GeneratedSql& sql, const std::string& label) {
  StatusOr<QueryGraph> core = Binder::BindSql(catalog, sql.core_sql);
  checks->Expect(core.ok(), label + ": join core does not bind");
  if (!core.ok()) return;
  StatusOr<OptimizeResult> dp = session->Optimize(*core);
  StatusOr<OptimizeResult> greedy = session->OptimizeGreedy(*core);
  const bool ok = dp.ok() && dp->best_plan != nullptr && greedy.ok() &&
                  greedy->best_plan != nullptr;
  checks->Expect(ok, label + ": join-core compile failed");
  if (!ok) return;
  const double d = dp->best_plan->cost;
  const double g = greedy->best_plan->cost;
  checks->Expect(d <= g * (1 + 1e-9),
                 label + ": DP cost " + std::to_string(d) +
                     " > greedy cost " + std::to_string(g));
}

/// One request's best timings over its passes: the lowest
/// latency and the lowest Estimate call of its kPasses runs. A timing that
/// was never taken stays infinite and is not recorded.
struct BestOf {
  double latency_ms = std::numeric_limits<double>::infinity();
  double estimate_ms = std::numeric_limits<double>::infinity();
  void TakeLatency(double ms) { latency_ms = std::min(latency_ms, ms); }
  void TakeEstimate(double ms) { estimate_ms = std::min(estimate_ms, ms); }
};

/// Everything one half of a run (untraced or traced units) accumulates.
struct Bucket {
  // End to end.
  std::vector<double> latency_ms;
  std::vector<double> estimate_ms;
  double busy_seconds = 0;  ///< Σ request windows (closed-loop throughput)
  int64_t completed = 0;
  double plan_err = 0;
  int64_t plan_err_n = 0;
  double time_err = 0;
  int64_t time_err_n = 0;
  // Parser.
  std::vector<double> parse_us, bind_us;
  // Optimizer.
  double enum_core_ms = 0;
  int64_t enum_core_n = 0;
  double gen_ms[3] = {0, 0, 0};
  double save_ms = 0, init_ms = 0;
  int64_t compiles = 0;
  double plans_generated = 0, plans_stored = 0, plans_all = 0;
  double par_busy_ms = 0, par_capacity_ms = 0;
  int64_t par_runs = 0;
  // Core.
  double estimate_sum_ms = 0, compile_sum_ms = 0;
  int64_t estimates = 0;
  double plan_estimates = 0;
  int64_t plan_estimate_n = 0;
  // Session.
  cote::StageSeconds stages;
  int64_t stage_runs = 0;
  int64_t warm_resets = 0, rebinds = 0;
  double pool_busy = 0, pool_capacity = 0, imbalance_sum = 0;
  int64_t batches = 0;
  // Service.
  std::vector<double> admit_us, queue_ms, service_ms, lateness_ms;
  size_t backlog_max = 0;
  int64_t shed = 0, degraded = 0;

  /// Counts one Estimate call; `seconds` is the call as the caller timed
  /// it. Its timing sample reaches estimate_ms through a BestOf.
  void CountEstimate(const CompileTimeEstimate& est, double seconds) {
    estimate_sum_ms += seconds * 1e3;
    plan_estimates += static_cast<double>(est.plan_estimates.total());
    ++plan_estimate_n;
    ++estimates;
  }
  /// Records the best of one request's passes (see kPasses).
  void AddBest(const BestOf& best) {
    if (std::isfinite(best.latency_ms)) {
      latency_ms.push_back(best.latency_ms);
      busy_seconds += best.latency_ms / 1e3;
    }
    if (std::isfinite(best.estimate_ms)) estimate_ms.push_back(best.estimate_ms);
  }
  void AddCompile(const OptimizeStats& s) {
    for (int m = 0; m < 3; ++m) gen_ms[m] += s.gen_seconds[m] * 1e3;
    save_ms += s.save_seconds * 1e3;
    init_ms += s.init_seconds * 1e3;
    plans_generated += static_cast<double>(s.join_plans_generated.total());
    plans_stored += static_cast<double>(s.plans_stored);
    plans_all += static_cast<double>(s.join_plans_generated.total() +
                                     s.enforcer_plans + s.scan_plans);
    compile_sum_ms += s.total_seconds * 1e3;
    ++compiles;
  }
  /// Fig. 5 and Fig. 6 errors of one query.
  void AddErrors(const CompileTimeEstimate& est, const OptimizeStats& s) {
    const double generated =
        static_cast<double>(s.join_plans_generated.total());
    if (generated > 0) {
      plan_err += std::abs(static_cast<double>(est.plan_estimates.total()) -
                           generated) /
                  generated;
      ++plan_err_n;
    }
    if (s.total_seconds > 0) {
      time_err +=
          std::abs(est.estimated_seconds - s.total_seconds) / s.total_seconds;
      ++time_err_n;
    }
  }
  void AddStages(const cote::CompilationStats& before,
                 const cote::CompilationStats& after) {
    stages.bind += after.cumulative_stages.bind - before.cumulative_stages.bind;
    stages.enumerate +=
        after.cumulative_stages.enumerate - before.cumulative_stages.enumerate;
    stages.complete +=
        after.cumulative_stages.complete - before.cumulative_stages.complete;
    stages.finalize +=
        after.cumulative_stages.finalize - before.cumulative_stages.finalize;
    stage_runs += (after.plans_compiled - before.plans_compiled) +
                  (after.estimates_run - before.estimates_run);
    warm_resets += after.warm_resets - before.warm_resets;
    rebinds += after.context_rebinds - before.context_rebinds;
  }
};

/// Exact counts over the leading kCountSet queries.
struct CountSet {
  size_t queries = 0;
  int64_t joins_ordered = 0;
  int64_t memo_entries = 0;
  void Add(const CompileTimeEstimate& est, const OptimizeStats& plan) {
    if (queries >= kCountSet) return;
    ++queries;
    joins_ordered += est.enumeration.joins_ordered;
    memo_entries += plan.memo_entries;
  }
};

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// State shared by the four runners: the two buckets, the tracer and the
/// checks.
struct Run {
  explicit Run(const RunOptions& o) : options(o) {}
  const RunOptions& options;
  Tracer tracer;
  Bucket buckets[2];  ///< [0] untraced units, [1] traced units
  Checks checks;
  CountSet counts;
  std::vector<double> setup_s, calibrate_s;
  int cpu_step = 0;  ///< RotateCpu's position
  double max_rate_qps = 0;
  int64_t max_rate_samples = 0;
  std::string max_rate_base;
  int64_t cache_hits = 0, cache_misses = 0, cache_insertions = 0,
          cache_evictions = 0;

  /// Adds one statement cache's activity over the measured part of the
  /// run.
  void AddCacheDelta(const cote::CacheStats& before,
                     const cote::CacheStats& after) {
    cache_hits += after.hits - before.hits;
    cache_misses += after.misses - before.misses;
    cache_insertions += after.insertions - before.insertions;
    cache_evictions += after.evictions - before.evictions;
  }

  /// In a traced run every odd unit is traced, so the traced and untraced
  /// halves see the same mix and warm state; the difference between their
  /// latency medians is the tracing overhead. A unit is a burst in
  /// service-openloop; in the closed loops it is a request's index plus
  /// its pass, so every request runs traced in half of its passes and
  /// untraced in the other half. Switches the tracer to match.
  bool BeginUnit(int64_t unit) {
    const bool traced = Traced(unit);
    tracer.SetActive(traced);
    return traced;
  }
  bool Traced(int64_t unit) const { return options.trace && unit % 2 == 1; }
  Bucket& B(bool traced) { return buckets[traced ? 1 : 0]; }

  /// Repeats `setup` kSetups times, timing each; the last result is kept.
  template <typename State>
  std::unique_ptr<State> Setup(const std::function<std::unique_ptr<State>()>& make) {
    std::unique_ptr<State> state;
    for (int i = 0; i < kSetups; ++i) {
      state.reset();
      const double t0 = Now();
      state = make();
      setup_s.push_back(Now() - t0);
      calibrate_s.push_back(state->calibrate_s);
    }
    return state;
  }
};

/// Parses and binds one statement, recording parser times and spans.
QueryGraph ParseAndBind(Run* run, Bucket& b, const cote::Catalog& catalog,
                        const std::string& sql, int64_t request, int parent) {
  const double t0 = Now();
  StatusOr<cote::ast::SelectStatement> stmt = [&] {
    ScopedSpan span(&run->tracer, "parser.parse", request, parent);
    return Parser::Parse(sql);
  }();
  const double t1 = Now();
  COTE_CHECK(stmt.ok());
  StatusOr<QueryGraph> graph = [&] {
    ScopedSpan span(&run->tracer, "parser.bind", request, parent);
    return Binder(catalog).Bind(*stmt);
  }();
  const double t2 = Now();
  COTE_CHECK(graph.ok());
  b.parse_us.push_back((t1 - t0) * 1e6);
  b.bind_us.push_back((t2 - t1) * 1e6);
  return std::move(graph).value();
}

/// Times the bare join enumeration of `graph` (traced units only; it runs
/// outside every request window).
void ProbeEnumCore(Run* run, Bucket* b, const QueryGraph& graph,
                   const OptimizerOptions& options, int64_t unit) {
  ScopedSpan span(&run->tracer, "optimizer.enum_core", unit);
  NullVisitor visitor;
  const double t0 = Now();
  cote::RunEnumeration(graph, options.enumeration, &visitor);
  b->enum_core_ms += (Now() - t0) * 1e3;
  ++b->enum_core_n;
}

// ---- Closed loop over one session: sparse-dp and dense-parallel ---------

struct SessionState {
  Catalogs catalogs;
  TimeModel model;
  double calibrate_s = 0;
  std::unique_ptr<CompilationSession> session;
  std::unique_ptr<CompilationSession> check_session;  ///< greedy checks
  /// dense-parallel only: the query list and each query's serial estimate.
  std::vector<GeneratedSql> fixed;
  std::vector<CompileTimeEstimate> serial;
};

/// One request: SQL text → parse → bind → Estimate → Optimize. Checks and
/// the enumeration probe run after the request window closes. `query` is
/// the statement's index in the seeded sequence, `pass` its pass in the
/// workload (the DP-versus-greedy check runs on pass 0 only), `unit` the
/// request id.
void SessionRequest(Run* run, SessionState* st, const GeneratedSql& sql,
                    int64_t query, int pass, int64_t unit, bool traced,
                    const OptimizerOptions& options,
                    const CompileTimeEstimate* serial_reference, BestOf* best) {
  run->tracer.SetActive(traced);
  Bucket& b = run->B(traced);
  CompilationSession& session = *st->session;
  StageSpanContext stage_ctx{&run->tracer, -1, unit};
  const cote::CompilationStats before = session.stats();

  const double t0 = Now();
  const int request = run->tracer.Begin("request", unit);
  QueryGraph graph = ParseAndBind(run, b, st->catalogs.For(sql.schema), sql.sql,
                                  unit, request);
  if (traced) session.SetStageObserver(&StageSpanObserver, &stage_ctx);
  const double e0 = Now();
  const CompileTimeEstimate est = [&] {
    ScopedSpan span(&run->tracer, "core.estimate", unit, request);
    stage_ctx.parent = span.id();
    return session.Estimate(graph, st->model);
  }();
  const double estimate_seconds = Now() - e0;
  double enum_wall = session.stats().last_stages.enumerate;
  StatusOr<OptimizeResult> result = [&] {
    ScopedSpan span(&run->tracer, "session.optimize", unit, request);
    stage_ctx.parent = span.id();
    return session.Optimize(graph);
  }();
  enum_wall += session.stats().last_stages.enumerate;
  run->tracer.End(request);
  const double t1 = Now();
  if (traced) session.SetStageObserver(nullptr, nullptr);

  Checks& checks = run->checks;
  checks.BeginRequest();
  const std::string label = "query " + std::to_string(query);
  checks.Expect(result.ok() && result->best_plan != nullptr,
                label + ": compile failed");
  if (result.ok() && result->best_plan != nullptr) {
    best->TakeLatency((t1 - t0) * 1e3);
    best->TakeEstimate(estimate_seconds * 1e3);
    b.CountEstimate(est, estimate_seconds);
    b.AddCompile(result->stats);
    b.AddErrors(est, result->stats);
    b.AddStages(before, session.stats());
    if (options.parallel_workers > 1) {
      b.par_busy_ms += (est.enumeration_busy_seconds +
                        result->stats.enumeration_busy_seconds) * 1e3;
      b.par_capacity_ms += enum_wall * 1e3 * options.parallel_workers;
      ++b.par_runs;
    }
    if (pass == 0) run->counts.Add(est, result->stats);
    if (serial_reference != nullptr) {
      // The rank-parallel estimate must count exactly what the serial
      // estimate computed in set-up counted; HSJN exactness is checked
      // against that serial count.
      const CompileTimeEstimate& s = *serial_reference;
      for (int m = 0; m < 3; ++m) {
        checks.Expect(est.plan_estimates.counts[m] == s.plan_estimates.counts[m],
                      label + ": parallel estimate count differs from serial");
      }
      checks.Expect(est.enumeration.joins_ordered == s.enumeration.joins_ordered,
                    label + ": parallel joins_ordered differs from serial");
      CheckModesAgree(&checks, s, result->stats, label);
    } else {
      CheckModesAgree(&checks, est, result->stats, label);
    }
    if (pass == 0 && query < static_cast<int64_t>(kCountSet)) {
      CheckNotWorseThanGreedy(&checks, st->check_session.get(),
                              st->catalogs.For(sql.schema), sql, label);
    }
    if (sql.schema == Schema::kSynthetic && serial_reference == nullptr) {
      // Sparse graphs: the closure must not add a single predicate.
      checks.Expect(static_cast<int>(graph.join_predicates().size()) == sql.edges,
                    label + ": bound join predicates != generated edges");
    }
  }
  checks.EndRequest();

  if (traced) ProbeEnumCore(run, &b, graph, options, unit);
}

/// Moves the calling thread to the next allowed CPU, round robin. On a
/// virtual machine each CPU's speed drifts with the host's other tenants;
/// a single-threaded loop that stays on one CPU inherits that CPU's luck,
/// so sparse-dp runs each pass on the next CPU and every query's passes
/// visit all of them.
void RotateCpu(int step) {
  static const std::vector<int> cpus = [] {
    std::vector<int> out;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) == 0) {
      for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) out.push_back(c);
      }
    }
    return out;
  }();
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<size_t>(step) % cpus.size()], &one);
  sched_setaffinity(0, sizeof one, &one);
}

/// One query of a session workload: its statement and, in
/// dense-parallel, the serial estimate its rank-parallel counts must match.
struct SessionItem {
  GeneratedSql sql;
  const CompileTimeEstimate* serial = nullptr;
};

/// Runs a session workload in kPasses passes. Pass 0 takes blocks of
/// queries from `next_block` until a kPasses-th of the run has gone (and
/// at least `min_blocks`); the later passes repeat those queries in the
/// same order, so a query's runs lie that far apart. With `rotate_cpu`
/// each pass runs on the next CPU (see RotateCpu). Each query's best
/// timings then go to the buckets (see Run::BeginUnit for a traced run).
void SessionPasses(Run* run, SessionState* st, const OptimizerOptions& options,
                   int min_blocks, bool rotate_cpu,
                   const std::function<std::vector<SessionItem>()>& next_block) {
  std::vector<SessionItem> items;
  std::vector<std::array<BestOf, 2>> best;
  int64_t unit = 0;
  auto run_from = [&](size_t first, int pass) {
    for (size_t i = first; i < items.size(); ++i) {
      const int64_t query = static_cast<int64_t>(i);
      const bool traced = run->Traced(query + pass);
      SessionRequest(run, st, items[i].sql, query, pass, unit++, traced, options,
                     items[i].serial, &best[i][traced ? 1 : 0]);
    }
  };
  const double start = Now();
  if (rotate_cpu) RotateCpu(run->cpu_step++);
  for (int block = 0;
       block < min_blocks || Now() - start < run->options.seconds / kPasses; ++block) {
    const size_t first = items.size();
    for (SessionItem& item : next_block()) items.push_back(std::move(item));
    best.resize(items.size());
    run_from(first, 0);
  }
  for (int pass = 1; pass < kPasses; ++pass) {
    if (rotate_cpu) RotateCpu(run->cpu_step++);
    run_from(0, pass);
  }
  for (const std::array<BestOf, 2>& q : best) {
    for (size_t t = 0; t < 2; ++t) {
      run->buckets[t].AddBest(q[t]);
      if (std::isfinite(q[t].latency_ms)) ++run->buckets[t].completed;
    }
  }
}

void RunSparseDp(Run* run) {
  const OptimizerOptions options = cote::bench::SerialOptions();
  auto st = run->Setup<SessionState>([&] {
    auto s = std::make_unique<SessionState>();
    const double c0 = Now();
    s->model = Calibrate(options);
    s->calibrate_s = Now() - c0;
    s->session = std::make_unique<CompilationSession>(options);
    s->check_session = std::make_unique<CompilationSession>(options);
    return s;
  });
  // Blocks of fifteen queries, one per (n, shape) pair for n = 13..17;
  // each block draws fresh statements. At least three blocks (45 samples,
  // enough for a p75 tail), and only whole blocks, so every run measures
  // the same size and shape mix however many blocks fit. (n = 18 would
  // triple a block's time: too few blocks per run once every query runs
  // kPasses times.)
  Rng rng(run->options.seed * 0x9e3779b97f4a7c15ULL + 1);
  SessionPasses(run, st.get(), options, /*min_blocks=*/3, /*rotate_cpu=*/true, [&] {
    std::vector<SessionItem> block;
    for (int n = 13; n <= 17; ++n) {
      for (SparseShape shape : {SparseShape::kChain, SparseShape::kCycle, SparseShape::kTree}) {
        block.push_back({MakeSparseQuery(rng, n, shape), nullptr});
      }
    }
    return block;
  });
}

void RunDenseParallel(Run* run) {
  OptimizerOptions options = cote::bench::SerialOptions();
  options.parallel_workers = kParallelWorkers;
  const OptimizerOptions serial = cote::bench::SerialOptions();
  auto st = run->Setup<SessionState>([&] {
    auto s = std::make_unique<SessionState>();
    const double c0 = Now();
    s->model = Calibrate(options);
    s->calibrate_s = Now() - c0;
    s->session = std::make_unique<CompilationSession>(options);
    s->check_session = std::make_unique<CompilationSession>(serial);
    // A fixed list, alternating dense stars and rings of 10 tables, each
    // estimated once serially as the reference for the rank-parallel
    // counts. (At 13..15 tables one dense compile takes 2.5..19 s with
    // four workers, too few per run to be steady.)
    Rng rng(run->options.seed * 0x9e3779b97f4a7c15ULL + 4);
    for (int i = 0; i < kDenseQueries; ++i) {
      s->fixed.push_back(i % 2 == 0 ? MakeDenseStar(rng, kDenseTables)
                                    : MakeDenseRing(rng, kDenseTables));
      StatusOr<QueryGraph> g =
          Binder::BindSql(s->catalogs.For(Schema::kSynthetic), s->fixed.back().sql);
      COTE_CHECK(g.ok());
      s->serial.push_back(s->check_session->Estimate(*g, s->model));
    }
    return s;
  });
  // Each block is the whole list; at least three (42 samples, enough for
  // a p75 tail).
  SessionPasses(run, st.get(), options, /*min_blocks=*/3, /*rotate_cpu=*/false, [&] {
    std::vector<SessionItem> block;
    for (size_t i = 0; i < st->fixed.size(); ++i) {
      block.push_back({st->fixed[i], &st->serial[i]});
    }
    return block;
  });
}

// ---- warehouse-batch --------------------------------------------------------

struct BatchState {
  Catalogs catalogs;
  TimeModel model;
  double calibrate_s = 0;
  /// One service per pass, so that every pass finds an empty statement
  /// cache and does the same work.
  std::vector<std::unique_ptr<cote::CompileService>> services;
  std::unique_ptr<CompilationSession> check_session;
};

/// Nine distinct statements for batch `k`: one large snowflake, two TPC-H
/// cores, three retail and three synthetic snowflakes of 5..9 tables, in
/// seeded order. The large snowflake, which sets most of a batch's
/// makespan, cycles through retail and synthetic at 10, 11 and 12 tables
/// (kBatchCycle batches), so that every run has the same mix of large
/// statements. Statements repeat no signature seen earlier in the run, so
/// the statement cache only ever misses.
std::vector<GeneratedSql> NextBatch(Rng& rng, const Catalogs& catalogs, size_t k,
                                    std::set<uint64_t>* seen) {
  const int large = 10 + static_cast<int>(k % 3);
  std::vector<std::function<GeneratedSql()>> makers = {
      [&] {
        return (k / 3) % 2 == 0 ? MakeRetailSnowflake(rng, large)
                                : MakeSyntheticSnowflake(rng, large);
      },
      [&] { return MakeTpchCore(rng); },
      [&] { return MakeTpchCore(rng); },
  };
  for (int i = 0; i < 3; ++i) {
    makers.push_back(
        [&] { return MakeRetailSnowflake(rng, 5 + static_cast<int>(rng.Uniform(5))); });
    makers.push_back([&] {
      return MakeSyntheticSnowflake(rng, 5 + static_cast<int>(rng.Uniform(5)));
    });
  }
  std::vector<GeneratedSql> batch;
  for (auto& make : makers) {
    for (;;) {
      GeneratedSql sql = make();
      StatusOr<QueryGraph> g = Binder::BindSql(catalogs.For(sql.schema), sql.sql);
      COTE_CHECK(g.ok());
      if (seen->insert(cote::CompileTimeCache::Signature(*g)).second) {
        batch.push_back(std::move(sql));
        break;
      }
    }
  }
  for (size_t i = batch.size(); i > 1; --i) {
    std::swap(batch[i - 1], batch[rng.Uniform(i)]);
  }
  return batch;
}

/// Pass `pass` of one batch (request id `unit`) through service `pass`:
/// parse and bind every statement, CompileBatch, then the checks. The
/// batch's latency and each statement's estimate time go to the BestOfs.
void BatchPass(Run* run, BatchState* st, const OptimizerOptions& options,
               const std::vector<GeneratedSql>& batch, int64_t unit, int pass,
               std::array<BestOf, 2>* batch_bests,
               std::array<std::vector<BestOf>, 2>* estimate_bests) {
  const bool traced = run->BeginUnit(unit + pass);
  Bucket& b = run->B(traced);
  BestOf* batch_best = &(*batch_bests)[traced ? 1 : 0];
  std::vector<BestOf>* estimate_best = &(*estimate_bests)[traced ? 1 : 0];

  const double t0 = Now();
  const int request = run->tracer.Begin("request", unit);
  std::vector<QueryGraph> graphs;
  graphs.reserve(batch.size());
  for (const GeneratedSql& sql : batch) {
    graphs.push_back(ParseAndBind(run, b, st->catalogs.For(sql.schema), sql.sql,
                                  unit, request));
  }
  std::vector<const QueryGraph*> ptrs;
  for (const QueryGraph& g : graphs) ptrs.push_back(&g);
  cote::ServiceBatchResult res = [&] {
    ScopedSpan span(&run->tracer, "service.compile_batch", unit, request);
    return st->services[static_cast<size_t>(pass)]->CompileBatch(ptrs);
  }();
  run->tracer.End(request);
  const double t1 = Now();

  batch_best->TakeLatency((t1 - t0) * 1e3);
  const cote::BatchStats& bs = res.stats;
  b.stages.bind += bs.merged.cumulative_stages.bind;
  b.stages.enumerate += bs.merged.cumulative_stages.enumerate;
  b.stages.complete += bs.merged.cumulative_stages.complete;
  b.stages.finalize += bs.merged.cumulative_stages.finalize;
  b.stage_runs += bs.merged.plans_compiled + bs.merged.estimates_run;
  b.warm_resets += bs.merged.warm_resets;
  b.rebinds += bs.merged.context_rebinds;
  b.pool_busy += bs.busy_seconds;
  b.pool_capacity += bs.wall_seconds * bs.workers_used;
  double max_busy = 0;
  for (const cote::WorkerSlice& w : bs.per_worker) {
    max_busy = std::max(max_busy, w.busy_seconds);
  }
  if (bs.busy_seconds > 0 && !bs.per_worker.empty()) {
    b.imbalance_sum +=
        max_busy / (bs.busy_seconds / static_cast<double>(bs.per_worker.size()));
    ++b.batches;
  }

  for (size_t i = 0; i < graphs.size(); ++i) {
    Checks& checks = run->checks;
    checks.BeginRequest();
    const std::string label =
        "batch " + std::to_string(unit) + " query " + std::to_string(i);
    const StatusOr<OptimizeResult>& r = res.results[i];
    const cote::AdmissionOutcome& adm = res.admissions[i];
    checks.Expect(r.ok() && r->best_plan != nullptr,
                  label + ": compile failed: " + r.status().ToString());
    if (r.ok() && r->best_plan != nullptr) {
      if (r->degraded) ++b.degraded;
      if (adm.estimated) {
        b.CountEstimate(adm.estimate, adm.estimate.estimation_seconds);
        (*estimate_best)[i].TakeEstimate(adm.estimate.estimation_seconds * 1e3);
      }
      b.AddCompile(r->stats);
      if (adm.estimated && !r->degraded) {
        b.AddErrors(adm.estimate, r->stats);
        CheckModesAgree(&checks, adm.estimate, r->stats, label);
        run->counts.Add(adm.estimate, r->stats);
      }
      if (unit == 0 && pass == 0) {
        CheckNotWorseThanGreedy(&checks, st->check_session.get(),
                                st->catalogs.For(batch[i].schema), batch[i],
                                label);
      }
    }
    checks.EndRequest();
    if (traced) ProbeEnumCore(run, &b, graphs[i], options, unit);
  }
}

void RunWarehouseBatch(Run* run) {
  const OptimizerOptions options = cote::bench::SerialOptions();
  auto st = run->Setup<BatchState>([&] {
    auto s = std::make_unique<BatchState>();
    const double c0 = Now();
    s->model = Calibrate(options);
    s->calibrate_s = Now() - c0;
    cote::CompileServiceOptions o;
    o.optimizer = options;
    o.time_model = s->model;
    o.num_workers = kServiceWorkers;
    for (int pass = 0; pass < kPasses; ++pass) {
      s->services.push_back(std::make_unique<cote::CompileService>(o));
    }
    s->check_session = std::make_unique<CompilationSession>(options);
    return s;
  });
  Rng rng(run->options.seed * 0x9e3779b97f4a7c15ULL + 2);
  std::set<uint64_t> seen;
  std::vector<cote::CacheStats> cache0;
  for (const auto& service : st->services) cache0.push_back(service->cache()->Stats());
  // Pass 0 sends fresh batches to service 0 until a kPasses-th of the run
  // has gone (at least kMinBatches, enough for a p75 tail, and whole
  // cycles of large statements); pass p sends the same batches, in the
  // same order, to service p. Each batch records its best pass, each
  // statement its best estimate.
  std::vector<std::vector<GeneratedSql>> batches;
  std::vector<std::array<BestOf, 2>> batch_best;
  std::vector<std::array<std::vector<BestOf>, 2>> estimate_best;
  const double start = Now();
  while (batches.size() < kMinBatches || batches.size() % kBatchCycle != 0 ||
         Now() - start < run->options.seconds / kPasses) {
    batches.push_back(NextBatch(rng, st->catalogs, batches.size(), &seen));
    batch_best.emplace_back();
    const size_t n = batches.back().size();
    estimate_best.push_back({std::vector<BestOf>(n), std::vector<BestOf>(n)});
    const size_t k = batches.size() - 1;
    BatchPass(run, st.get(), options, batches[k], static_cast<int64_t>(k), 0,
              &batch_best[k], &estimate_best[k]);
  }
  for (int pass = 1; pass < kPasses; ++pass) {
    for (size_t k = 0; k < batches.size(); ++k) {
      BatchPass(run, st.get(), options, batches[k], static_cast<int64_t>(k), pass,
                &batch_best[k], &estimate_best[k]);
    }
  }
  for (size_t k = 0; k < batches.size(); ++k) {
    for (size_t t = 0; t < 2; ++t) {
      Bucket& b = run->buckets[t];
      b.AddBest(batch_best[k][t]);
      if (std::isfinite(batch_best[k][t].latency_ms)) {
        b.completed += static_cast<int64_t>(batches[k].size());
      }
      for (const BestOf& e : estimate_best[k][t]) b.AddBest(e);
    }
  }
  for (size_t pass = 0; pass < st->services.size(); ++pass) {
    run->AddCacheDelta(cache0[pass], st->services[pass]->cache()->Stats());
  }
}

// ---- service-openloop -------------------------------------------------------

/// Steady clock for the async service that remembers the first reading
/// taken after Arm(). The service stamps its burst epoch with the first
/// Submit's reading, and its record times are offsets from that epoch;
/// arming before the first Submit of a burst recovers the epoch exactly,
/// on the same time base as Now(). Workers only read the clock while they
/// hold work, so between bursts the first reading is the client thread's.
class EpochClock final : public cote::Clock {
 public:
  double NowSeconds() override {
    const double t = Now();
    if (armed_.exchange(false, std::memory_order_acq_rel)) {
      first_.store(t, std::memory_order_release);
    }
    return t;
  }
  void Arm() { armed_.store(true, std::memory_order_release); }
  double first() const { return first_.load(std::memory_order_acquire); }

 private:
  std::atomic<bool> armed_{false};
  std::atomic<double> first_{0};
};

struct ServiceState {
  Catalogs catalogs;
  TimeModel model;
  double calibrate_s = 0;
  EpochClock clock;
  std::vector<GeneratedSql> statements;
  std::vector<double> zipf_cdf;
  std::unique_ptr<cote::AsyncCompileService> service;
};

size_t ZipfDraw(Rng& rng, const std::vector<double>& cdf) {
  return static_cast<size_t>(
      std::lower_bound(cdf.begin(), cdf.end(), rng.NextDouble()) - cdf.begin());
}

struct Arrival {
  double due = 0;  ///< seconds from the burst start
  size_t statement = 0;
  double deadline_after = 0;  ///< relative deadline; 0 = none
};

/// Poisson arrivals at `rate` over `seconds`, conditioned on their count:
/// round(rate * seconds) due times drawn uniformly and sorted, which is
/// how a Poisson process places a given number of arrivals. Fixing the
/// count keeps the offered load identical across seeds.
std::vector<Arrival> PoissonArrivals(Rng& rng, const ServiceState& st,
                                     double rate, double seconds) {
  const size_t n = static_cast<size_t>(std::llround(rate * seconds));
  std::vector<double> due(n);
  for (double& d : due) d = rng.NextDouble() * seconds;
  std::sort(due.begin(), due.end());
  std::vector<Arrival> out(n);
  for (size_t i = 0; i < n; ++i) {
    out[i].due = due[i];
    out[i].statement = ZipfDraw(rng, st.zipf_cdf);
    if (rng.Bernoulli(0.5)) out[i].deadline_after = 0.005 + 0.045 * rng.NextDouble();
  }
  return out;
}

/// One open-loop burst through the async service. Request spans (traced
/// bursts only) run from the due time to the finish, with the parse, bind
/// and submit calls and the service's queue wait and compile as children.
OpenLoopTiming RunBurst(Run* run, ServiceState* st,
                        const std::vector<Arrival>& arrivals,
                        int64_t first_request, bool traced, Bucket* b,
                        std::vector<cote::ServiceQueryRecord>* records) {
  std::deque<QueryGraph> graphs;  // stable addresses until Drain
  std::vector<int> request_span(arrivals.size(), -1);
  std::vector<double> due;
  for (const Arrival& a : arrivals) due.push_back(a.due);
  cote::AsyncCompileService& svc = *st->service;
  double epoch = 0, burst_start = 0;
  auto submit = [&](size_t i) {
    const Arrival& a = arrivals[i];
    const GeneratedSql& sql = st->statements[a.statement];
    const int64_t request = first_request + static_cast<int64_t>(i);
    request_span[i] = run->tracer.Begin("request", request);
    graphs.push_back(ParseAndBind(run, *b, st->catalogs.For(sql.schema), sql.sql,
                                  request, request_span[i]));
    cote::Submission sub;
    sub.query = &graphs.back();
    if (a.deadline_after > 0) sub.deadline_seconds = a.due + a.deadline_after;
    if (i == 0) st->clock.Arm();
    ScopedSpan span(&run->tracer, "service.submit", request, request_span[i]);
    svc.Submit(sub);
  };
  auto drain = [&](double start) {
    cote::ServiceReport report = svc.Drain();
    epoch = st->clock.first();
    burst_start = start;
    std::vector<double> finish(arrivals.size(), 0);
    std::vector<int> seen(arrivals.size(), 0);
    std::vector<const cote::ServiceQueryRecord*> by_ticket(arrivals.size());
    for (const cote::ServiceQueryRecord& rec : report.records) {
      if (rec.ticket < arrivals.size()) {
        ++seen[rec.ticket];
        by_ticket[rec.ticket] = &rec;
        finish[rec.ticket] = epoch + rec.finish_seconds - start;
      }
    }
    // Every ticket ends in exactly one terminal record, and that record
    // is a served compile.
    Checks& checks = run->checks;
    for (size_t i = 0; i < seen.size(); ++i) {
      checks.BeginRequest();
      checks.Expect(seen[i] == 1, "ticket " + std::to_string(i) + " has " +
                                      std::to_string(seen[i]) +
                                      " terminal records");
      if (seen[i] == 1) {
        checks.Expect(by_ticket[i]->status.ok(),
                      "ticket " + std::to_string(i) + ": " +
                          by_ticket[i]->status.ToString());
      }
      checks.EndRequest();
    }
    *records = std::move(report.records);
    return finish;
  };
  OpenLoopTiming timing = RunOpenLoop(due, submit, drain);
  if (traced) {
    // The request span is re-anchored at its due time.
    for (const cote::ServiceQueryRecord& rec : *records) {
      if (rec.ticket >= arrivals.size()) continue;
      const int id = request_span[rec.ticket];
      const double s1 = epoch + rec.finish_seconds;
      run->tracer.Reanchor(id, burst_start + due[rec.ticket], s1);
      run->tracer.Add("service.queue", epoch + rec.arrival_seconds,
                      epoch + rec.start_seconds, id,
                      first_request + static_cast<int64_t>(rec.ticket));
      run->tracer.Add("service.compile", epoch + rec.start_seconds, s1, id,
                      first_request + static_cast<int64_t>(rec.ticket));
    }
  }
  return timing;
}

void RunServiceOpenLoop(Run* run, Report* report) {
  const OptimizerOptions options = cote::bench::SerialOptions();
  auto st = run->Setup<ServiceState>([&] {
    auto s = std::make_unique<ServiceState>();
    const double c0 = Now();
    s->model = Calibrate(options);
    s->calibrate_s = Now() - c0;
    // Zipf rank k holds a synthetic snowflake of 2 + k % 7 tables, so the
    // hot set has the same size mix under every seed and only the
    // statements' details vary.
    Rng rng(run->options.seed * 0x9e3779b97f4a7c15ULL + 3);
    std::set<uint64_t> seen;
    while (static_cast<int>(s->statements.size()) < kServiceStatements) {
      const int k = static_cast<int>(s->statements.size());
      const int n = 2 + k % 7;
      GeneratedSql sql = MakeSyntheticSnowflake(rng, n);
      StatusOr<QueryGraph> g = Binder::BindSql(s->catalogs.For(sql.schema), sql.sql);
      COTE_CHECK(g.ok());
      if (seen.insert(cote::CompileTimeCache::Signature(*g)).second) {
        s->statements.push_back(std::move(sql));
      }
    }
    double total = 0;
    for (int k = 1; k <= kServiceStatements; ++k) {
      total += 1.0 / std::pow(k, kZipfSkew);
      s->zipf_cdf.push_back(total);
    }
    for (double& c : s->zipf_cdf) c /= total;
    cote::CompileServiceOptions o;
    o.optimizer = options;
    o.time_model = s->model;
    o.num_workers = kServiceWorkers;
    o.policy = cote::SchedulingPolicy::kDeadlineAware;
    o.clock = &s->clock;
    s->service = std::make_unique<cote::AsyncCompileService>(o);
    return s;
  });
  Rng rng(run->options.seed * 0x9e3779b97f4a7c15ULL + 5);
  cote::AsyncCompileService& svc = *st->service;
  auto record_outcomes = [&](const std::vector<cote::ServiceQueryRecord>& recs,
                             Bucket* b) {
    if (b == nullptr) return;
    for (const cote::ServiceQueryRecord& rec : recs) {
      if (rec.worker < 0) ++b->shed;
      if (rec.degraded) ++b->degraded;
      if (!rec.status.ok()) continue;
      ++b->completed;
      b->queue_ms.push_back(rec.queue_seconds * 1e3);
      b->service_ms.push_back(rec.service_seconds * 1e3);
      b->compile_sum_ms += rec.service_seconds * 1e3;
      if (rec.estimated && !rec.degraded && rec.service_seconds > 0) {
        b->time_err += std::abs(rec.predicted_seconds - rec.service_seconds) /
                       rec.service_seconds;
        ++b->time_err_n;
      }
    }
  };

  // Warm-up: one unpaced burst of Zipf draws, drained, so the cache holds
  // the hot statements before anything is timed (the service applies
  // cache inserts only at Drain). Its rate is the service's capacity on
  // this mix with an always-full queue.
  {
    std::vector<Arrival> warm;
    for (int i = 0; i < 2 * kServiceStatements; ++i) {
      Arrival a;
      a.statement = ZipfDraw(rng, st->zipf_cdf);
      warm.push_back(a);
    }
    Bucket scratch;
    std::vector<cote::ServiceQueryRecord> recs;
    run->tracer.SetActive(false);
    const double t0 = Now();
    RunBurst(run, st.get(), warm, -1, false, &scratch, &recs);
    const double t1 = Now();
    record_outcomes(recs, nullptr);
    char line[160];
    std::snprintf(line, sizeof line,
                  "warm-up: %zu unpaced requests in %.3f s (%.0f queries/s "
                  "with a full queue)",
                  warm.size(), t1 - t0, static_cast<double>(warm.size()) / (t1 - t0));
    report->notes.push_back(line);
  }

  const cote::CacheStats cache0 = svc.cache()->Stats();
  constexpr size_t kRungs = sizeof(kRateLadder) / sizeof(kRateLadder[0]);
  const int halves = run->options.trace ? 2 : 1;
  int64_t unit = 0;
  int64_t next_request = 0;
  for (size_t r = 0; r < kRungs; ++r) {
    std::vector<double> rung_latency;
    bool rung_ok = true;
    bool growing = false;
    size_t rung_requests = 0;
    double rung_span = 0;
    for (int h = 0; h < halves; ++h, ++unit) {
      const bool traced = run->BeginUnit(unit);
      Bucket& b = run->B(traced);
      const std::vector<Arrival> arrivals =
          PoissonArrivals(rng, *st, kRateLadder[r],
                          run->options.seconds * kRungShare[r] / halves);
      std::vector<cote::CompilationStats> before;
      for (int w = 0; w < svc.pool().num_workers(); ++w) {
        before.push_back(svc.pool().session(w).stats());
      }
      std::vector<cote::ServiceQueryRecord> recs;
      const int64_t failed_before = run->checks.failed();
      OpenLoopTiming t =
          RunBurst(run, st.get(), arrivals, next_request, traced, &b, &recs);
      next_request += static_cast<int64_t>(arrivals.size());
      record_outcomes(recs, &b);
      for (int w = 0; w < svc.pool().num_workers(); ++w) {
        b.AddStages(before[static_cast<size_t>(w)], svc.pool().session(w).stats());
      }
      for (size_t i = 0; i < t.latency_s.size(); ++i) {
        b.admit_us.push_back(t.submit_s[i] * 1e6);
        b.lateness_ms.push_back(t.lateness_s[i] * 1e3);
        if (i < recs.size() && recs[i].estimated) {
          // Admission ran the estimate inside this Submit call.
          b.estimate_ms.push_back(t.submit_s[i] * 1e3);
          b.estimate_sum_ms += t.submit_s[i] * 1e3;
          ++b.estimates;
        }
      }
      b.backlog_max = std::max(b.backlog_max, t.backlog_max);
      if (r + 1 == kRungs) {
        // The top rate's latencies are the workload's end-to-end latency.
        for (double l : t.latency_s) b.latency_ms.push_back(l * 1e3);
      }
      if (!traced) {
        for (double l : t.latency_s) rung_latency.push_back(l * 1e3);
        growing = growing || t.backlog_growing;
        rung_ok = rung_ok && run->checks.failed() == failed_before;
        rung_requests += arrivals.size();
        double last = 0;  // the burst's last finish, from its start
        for (size_t i = 0; i < arrivals.size(); ++i) {
          last = std::max(last, arrivals[i].due + t.latency_s[i]);
        }
        rung_span += last;
      }
    }
    const Tail tail = TailPercentile(rung_latency);
    const bool sustained = rung_ok && !growing && tail.value <= kLatencyLimitMs;
    char line[200];
    std::snprintf(line, sizeof line,
                  "rate %6.0f/s: n=%zu p50 %.3f ms, p%.1f %.3f ms (%zu beyond), "
                  "backlog %s -> %s",
                  kRateLadder[r], rung_latency.size(), Median(rung_latency),
                  tail.pct, tail.value, tail.beyond,
                  growing ? "growing" : "steady",
                  sustained ? "sustained" : "not sustained");
    report->notes.push_back(line);
    if (sustained) {
      run->max_rate_qps = static_cast<double>(rung_requests) / rung_span;
      run->max_rate_samples = static_cast<int64_t>(rung_requests);
      char base[96];
      std::snprintf(base, sizeof base, "achieved at offered %.0f/s, limit p-tail <= %.0f ms",
                    kRateLadder[r], kLatencyLimitMs);
      run->max_rate_base = base;
    }
  }
  run->AddCacheDelta(cache0, svc.cache()->Stats());

  run->tracer.SetActive(false);
  // Check phase (untimed): the hottest statements compiled in both modes
  // on a serial session — the Fig. 5 error and the exactness checks.
  CompilationSession session(options);
  Bucket& b = run->B(false);
  for (size_t i = 0; i < static_cast<size_t>(kCheckStatements); ++i) {
    const GeneratedSql& sql = st->statements[i];
    StatusOr<QueryGraph> g = Binder::BindSql(st->catalogs.For(sql.schema), sql.sql);
    COTE_CHECK(g.ok());
    run->checks.BeginRequest();
    const std::string label = "statement " + std::to_string(i);
    const CompileTimeEstimate est = session.Estimate(*g, st->model);
    StatusOr<OptimizeResult> r = session.Optimize(*g);
    run->checks.Expect(r.ok() && r->best_plan != nullptr, label + ": compile failed");
    if (r.ok() && r->best_plan != nullptr) {
      const double generated =
          static_cast<double>(r->stats.join_plans_generated.total());
      if (generated > 0) {
        b.plan_err += std::abs(static_cast<double>(est.plan_estimates.total()) -
                               generated) /
                      generated;
        ++b.plan_err_n;
      }
      Bucket& layer = run->B(run->options.trace);
      layer.plan_estimates += static_cast<double>(est.plan_estimates.total());
      ++layer.plan_estimate_n;
      run->counts.Add(est, r->stats);
      CheckModesAgree(&run->checks, est, r->stats, label);
      CheckNotWorseThanGreedy(&run->checks, &session, st->catalogs.For(sql.schema),
                              sql, label);
    }
    run->checks.EndRequest();
  }
}

// ---- Reporting ------------------------------------------------------------

void AddMetric(std::vector<Metric>* out, const std::string& name, double value,
               const std::string& unit, int64_t samples,
               const std::string& base = "", bool listed = true) {
  out->push_back(Metric{name, value, unit, samples, base, listed});
}

std::string Fmt(const char* fmt, double a, double b = 0) {
  char buf[160];
  std::snprintf(buf, sizeof buf, fmt, a, b);
  return buf;
}

void EndToEnd(const Run& run, const std::string& workload, Report* report) {
  const Bucket& u = run.buckets[0];
  std::vector<Metric>& out = report->end_to_end;
  AddMetric(&out, "setup_s", Median(run.setup_s), "s",
            static_cast<int64_t>(run.setup_s.size()), "median of set-ups");
  const bool open_loop = workload == "service-openloop";
  const std::string best_of = "best of " + std::to_string(kPasses);
  const std::string lat_base =
      open_loop ? "due time -> finish, top ladder rate"
                : (workload == "warehouse-batch" ? "SQL text -> plans, per batch, "
                                                 : "SQL text -> plan, per query, ") +
                      best_of;
  AddMetric(&out, "latency_p50_ms", Median(u.latency_ms), "ms",
            static_cast<int64_t>(u.latency_ms.size()), lat_base);
  // Each workload reports its tails at a fixed percentile: the highest
  // one that keeps at least ten samples beyond it at every run length seen
  // on the machine this was tuned on. Sample counts vary with the machine's
  // speed, and a percentile that changed between runs would make the tail
  // jump.
  double latency_pct = 75, estimate_pct = 75;  // closed loops: >= 42 samples
  if (workload == "warehouse-batch") {
    estimate_pct = 95;  // nine estimates per batch
  } else if (open_loop) {
    latency_pct = 99;   // ~2000 requests at the top rate
    estimate_pct = 95;  // ~280 estimated requests
  }
  const Tail lt = TailAt(u.latency_ms, latency_pct);
  AddMetric(&out, "latency_tail_ms", lt.value, "ms", static_cast<int64_t>(lt.n),
            Fmt("p%g, %.0f samples beyond", lt.pct, static_cast<double>(lt.beyond)));
  if (open_loop) {
    AddMetric(&out, "throughput_qps", run.max_rate_qps, "queries/s",
              run.max_rate_samples, "= max_rate_qps, " + run.max_rate_base);
  } else {
    AddMetric(&out, "throughput_qps", Ratio(static_cast<double>(u.completed), u.busy_seconds),
              "queries/s", u.completed, "completed / closed-loop busy time");
  }
  AddMetric(&out, "estimate_p50_ms", Median(u.estimate_ms), "ms",
            static_cast<int64_t>(u.estimate_ms.size()),
            open_loop ? "Submit calls that ran the estimate"
                      : "Estimate calls, " + best_of + " per statement");
  const Tail et = TailAt(u.estimate_ms, estimate_pct);
  AddMetric(&out, "estimate_tail_ms", et.value, "ms", static_cast<int64_t>(et.n),
            Fmt("p%g, %.0f samples beyond", et.pct, static_cast<double>(et.beyond)));
  // The two estimator errors are properties of the seeded query set, so
  // they spread across seeds more than any gate's bound allows: printed
  // only.
  AddMetric(&out, "plan_count_error_pct", 100 * Ratio(u.plan_err, static_cast<double>(u.plan_err_n)),
            "%", u.plan_err_n, "mean |estimated - generated| / generated join plans",
            /*listed=*/false);
  AddMetric(&out, "time_error_pct", 100 * Ratio(u.time_err, static_cast<double>(u.time_err_n)),
            "%", u.time_err_n, "mean |predicted - measured| / measured compile time",
            /*listed=*/false);
  // Peak RSS moves in steps: one large statement that grows a buffer past
  // its next capacity doubling lifts sparse-dp from ~17 to ~26 MB on some
  // seeds and not others. Printed only.
  AddMetric(&out, "peak_rss_mb", PeakRssMb(), "MB", 1, "getrusage maxrss",
            /*listed=*/false);
  if (open_loop) {
    AddMetric(&out, "max_rate_qps", run.max_rate_qps, "queries/s", run.max_rate_samples,
              run.max_rate_base + " (listed as throughput_qps)", /*listed=*/false);
  }
  const double attempted = static_cast<double>(run.checks.attempted());
  AddMetric(&out, "failed_frac", Ratio(static_cast<double>(run.checks.failed()), attempted),
            "fraction", run.checks.attempted(),
            "non-OK status, sheds, failed checks (listed as failed / attempted)",
            /*listed=*/false);
}

void PerLayer(const Run& run, Report* report) {
  const Bucket& t = run.buckets[run.options.trace ? 1 : 0];
  const Bucket& u = run.buckets[0];
  std::vector<Metric>& out = report->per_layer;
  const auto n = [](size_t k) { return static_cast<int64_t>(k); };
  AddMetric(&out, "parser.parse_us", Mean(t.parse_us), "us", n(t.parse_us.size()));
  AddMetric(&out, "parser.bind_us", Mean(t.bind_us), "us", n(t.bind_us.size()));
  const double comp = static_cast<double>(t.compiles);
  AddMetric(&out, "optimizer.enum_core_ms",
            Ratio(t.enum_core_ms, static_cast<double>(t.enum_core_n)), "ms", t.enum_core_n);
  AddMetric(&out, "optimizer.joins_ordered", static_cast<double>(run.counts.joins_ordered),
            "count", n(run.counts.queries), "sum over the leading queries");
  AddMetric(&out, "optimizer.memo_entries", static_cast<double>(run.counts.memo_entries),
            "count", n(run.counts.queries), "sum over the leading queries");
  AddMetric(&out, "optimizer.gen_ms.nljn", Ratio(t.gen_ms[0], comp), "ms", t.compiles);
  AddMetric(&out, "optimizer.gen_ms.mgjn", Ratio(t.gen_ms[1], comp), "ms", t.compiles);
  AddMetric(&out, "optimizer.gen_ms.hsjn", Ratio(t.gen_ms[2], comp), "ms", t.compiles);
  AddMetric(&out, "optimizer.save_ms", Ratio(t.save_ms, comp), "ms", t.compiles);
  AddMetric(&out, "optimizer.init_ms", Ratio(t.init_ms, comp), "ms", t.compiles);
  AddMetric(&out, "optimizer.plans_generated", Ratio(t.plans_generated, comp), "count",
            t.compiles, "join plans per compile");
  AddMetric(&out, "optimizer.plans_kept_ratio", Ratio(t.plans_stored, t.plans_all),
            "ratio", t.compiles,
            Fmt("%.0f stored of %.0f generated (join+enforcer+scan)", t.plans_stored,
                t.plans_all));
  AddMetric(&out, "optimizer.parallel.busy_ms",
            Ratio(t.par_busy_ms, static_cast<double>(t.par_runs)), "ms", t.par_runs,
            "per estimate+compile pair");
  AddMetric(&out, "optimizer.parallel.efficiency", Ratio(t.par_busy_ms, t.par_capacity_ms),
            "ratio", t.par_runs,
            Fmt("%.1f ms busy of %.1f ms enumerate wall x workers", t.par_busy_ms,
                t.par_capacity_ms));
  AddMetric(&out, "core.estimate_ms",
            Ratio(t.estimate_sum_ms, static_cast<double>(t.estimates)), "ms", t.estimates);
  AddMetric(&out, "core.plan_estimates",
            Ratio(t.plan_estimates, static_cast<double>(t.plan_estimate_n)), "count",
            t.plan_estimate_n, "estimated join plans per estimate");
  AddMetric(&out, "core.estimate_share_pct", 100 * Ratio(t.estimate_sum_ms, t.compile_sum_ms),
            "%", t.estimates,
            Fmt("%.1f ms estimating of %.1f ms compiling", t.estimate_sum_ms,
                t.compile_sum_ms));
  AddMetric(&out, "core.calibrate_s", Median(run.calibrate_s), "s",
            n(run.calibrate_s.size()), "median of set-ups");
  const double lookups = static_cast<double>(run.cache_hits + run.cache_misses);
  AddMetric(&out, "core.cache_hit_ratio", Ratio(static_cast<double>(run.cache_hits), lookups),
            "ratio", static_cast<int64_t>(lookups),
            Fmt("%.0f hits of %.0f lookups", static_cast<double>(run.cache_hits), lookups));
  AddMetric(&out, "core.cache_insertions", static_cast<double>(run.cache_insertions),
            "count", 1);
  AddMetric(&out, "core.cache_evictions", static_cast<double>(run.cache_evictions),
            "count", 1);
  const double runs = static_cast<double>(t.stage_runs);
  AddMetric(&out, "session.stage.bind_ms", 1e3 * Ratio(t.stages.bind, runs), "ms",
            t.stage_runs, "per pipeline run");
  AddMetric(&out, "session.stage.enumerate_ms", 1e3 * Ratio(t.stages.enumerate, runs), "ms",
            t.stage_runs, "per pipeline run");
  AddMetric(&out, "session.stage.complete_ms", 1e3 * Ratio(t.stages.complete, runs), "ms",
            t.stage_runs, "per pipeline run");
  AddMetric(&out, "session.stage.finalize_ms", 1e3 * Ratio(t.stages.finalize, runs), "ms",
            t.stage_runs, "per pipeline run");
  const double binds = static_cast<double>(t.warm_resets + t.rebinds);
  AddMetric(&out, "session.warm_reset_ratio", Ratio(static_cast<double>(t.warm_resets), binds),
            "ratio", static_cast<int64_t>(binds),
            Fmt("%.0f warm of %.0f binds", static_cast<double>(t.warm_resets), binds));
  AddMetric(&out, "session.pool.utilization", Ratio(t.pool_busy, t.pool_capacity), "ratio",
            t.batches, Fmt("%.3f s busy of %.3f s wall x workers", t.pool_busy, t.pool_capacity));
  AddMetric(&out, "session.pool.imbalance",
            Ratio(t.imbalance_sum, static_cast<double>(t.batches)), "ratio", t.batches,
            "max worker busy / mean worker busy, mean over batches");
  // The open-loop service metrics come only from service-openloop, which
  // BENCHMARK.json does not list (see README.md): printed, not in the JSON.
  AddMetric(&out, "service.admit_us", Mean(t.admit_us), "us", n(t.admit_us.size()), "",
            /*listed=*/false);
  AddMetric(&out, "service.queue_ms", Mean(t.queue_ms), "ms", n(t.queue_ms.size()), "",
            /*listed=*/false);
  AddMetric(&out, "service.compile_ms", Mean(t.service_ms), "ms", n(t.service_ms.size()),
            "", /*listed=*/false);
  AddMetric(&out, "service.generator_lateness_ms", Mean(t.lateness_ms), "ms",
            n(t.lateness_ms.size()),
            Fmt("max %.3f ms", t.lateness_ms.empty()
                                   ? 0.0
                                   : *std::max_element(t.lateness_ms.begin(),
                                                       t.lateness_ms.end())),
            /*listed=*/false);
  AddMetric(&out, "service.backlog_max", static_cast<double>(t.backlog_max), "count", 1, "",
            /*listed=*/false);
  AddMetric(&out, "service.shed", static_cast<double>(t.shed), "count", 1, "",
            /*listed=*/false);
  AddMetric(&out, "service.degraded", static_cast<double>(t.degraded), "count", 1);
  const double p_traced = Median(t.latency_ms);
  const double p_plain = Median(u.latency_ms);
  AddMetric(&out, "trace.overhead_pct",
            run.options.trace ? 100 * (Ratio(p_traced, p_plain) - 1) : 0, "%",
            n(t.latency_ms.size()),
            Fmt("traced p50 %.4f ms vs untraced p50 %.4f ms", p_traced, p_plain));
}

void SpanNotes(const Run& run, Report* report) {
  if (!run.options.trace) return;
  const std::vector<Span>& spans = run.tracer.spans();
  report->notes.push_back("spans recorded: " + std::to_string(spans.size()));
  for (const auto& [layer, totals] : ReduceByLayer(spans)) {
    char line[200];
    std::snprintf(line, sizeof line,
                  "layer %-10s self %10.3f ms total %10.3f ms (%lld spans)",
                  layer.c_str(), totals.self_seconds * 1e3, totals.total_seconds * 1e3,
                  static_cast<long long>(totals.count));
    report->notes.push_back(line);
  }
  for (const auto& [name, totals] : ReduceByName(spans)) {
    char line[200];
    std::snprintf(line, sizeof line,
                  "span %-26s n=%-7lld mean %9.4f ms, self mean %9.4f ms", name.c_str(),
                  static_cast<long long>(totals.count),
                  1e3 * totals.total_seconds / static_cast<double>(totals.count),
                  1e3 * totals.self_seconds / static_cast<double>(totals.count));
    report->notes.push_back(line);
  }
}

}  // namespace

bool RunWorkload(const RunOptions& options, Report* report) {
  Run run(options);
  if (options.workload == "sparse-dp") {
    RunSparseDp(&run);
  } else if (options.workload == "warehouse-batch") {
    RunWarehouseBatch(&run);
  } else if (options.workload == "service-openloop") {
    RunServiceOpenLoop(&run, report);
  } else if (options.workload == "dense-parallel") {
    RunDenseParallel(&run);
  } else {
    return false;
  }
  run.checks.Fill(report);
  EndToEnd(run, options.workload, report);
  PerLayer(run, report);
  SpanNotes(run, report);
  return true;
}

}  // namespace perfbench
