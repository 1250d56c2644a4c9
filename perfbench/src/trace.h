// In-memory span recorder for the traced run, and the reducer that turns
// spans into per-layer self times.
//
// Spans are recorded by the benchmark around each public call it makes
// (parse, bind, estimate, optimize, batch compile, submit, ...); the
// pipeline's stage-observer events are added as child spans of the call
// that produced them. A span's name is "<layer>.<what>", and the layer
// (the text before the first '.') is what self time is grouped by.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "session/pipeline.h"

namespace perfbench {

/// Monotonic seconds on the one clock every benchmark timestamp uses.
double Now();

struct Span {
  const char* name = "";  ///< static string, "<layer>.<what>"
  double start = 0;       ///< Now() seconds
  double end = 0;
  int parent = -1;        ///< index into the tracer's spans, -1 = root
  int64_t request = -1;   ///< request id shared by one request's spans
};

/// Collects spans in memory until the run ends. An inactive tracer
/// records nothing and every call is a single branch, so untraced work
/// pays (almost) nothing for the instrumentation points. The traced run
/// switches it on and off per unit of work.
class Tracer {
 public:
  void SetActive(bool active) { active_ = active; }
  bool active() const { return active_; }

  /// Opens a span; returns its id (-1 when disabled).
  int Begin(const char* name, int64_t request, int parent = -1);
  void End(int id);
  /// Records a finished span whose times were measured elsewhere.
  int Add(const char* name, double start, double end, int parent,
          int64_t request);

  /// Moves a recorded span (no-op for id -1).
  void Reanchor(int id, double start, double end);

  const std::vector<Span>& spans() const { return spans_; }

 private:
  bool active_ = false;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int64_t request,
             int parent = -1)
      : tracer_(tracer), id_(tracer->Begin(name, request, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Context for StageSpanObserver: where the stage spans of the call in
/// progress go. Point `parent` at the open span of that call.
struct StageSpanContext {
  Tracer* tracer = nullptr;
  int parent = -1;
  int64_t request = -1;
};

/// cote::StageObserverFn that records each pipeline stage as a child span
/// "optimizer.stage.<bind|enumerate|complete|finalize>" in plan mode and
/// "core.stage.<...>" in estimate mode. The event carries the stage's
/// duration and fires at its end, so start = now - seconds.
void StageSpanObserver(void* ctx, const cote::StageEvent& event);

/// Per-name (or per-layer) totals over a set of spans.
struct SpanTotals {
  int64_t count = 0;
  double total_seconds = 0;  ///< Σ (end - start)
  double self_seconds = 0;   ///< Σ (end - start - time covered by children)
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers. Indexed like spans.
std::vector<double> SelfSeconds(const std::vector<Span>& spans);

/// Totals keyed by full span name.
std::map<std::string, SpanTotals> ReduceByName(const std::vector<Span>& spans);
/// Totals keyed by layer (the span name up to its first '.').
std::map<std::string, SpanTotals> ReduceByLayer(
    const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
