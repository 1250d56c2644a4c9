#include "trace.h"

#include <algorithm>
#include <chrono>

namespace perfbench {

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::Begin(const char* name, int64_t request, int parent) {
  if (!active_) return -1;
  const double now = Now();
  return Add(name, now, now, parent, request);
}

void Tracer::End(int id) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end = Now();
}

void Tracer::Reanchor(int id, double start, double end) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].start = start;
  spans_[static_cast<size_t>(id)].end = end;
}

int Tracer::Add(const char* name, double start, double end, int parent,
                int64_t request) {
  if (!active_) return -1;
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = parent;
  s.request = request;
  spans_.push_back(s);
  return static_cast<int>(spans_.size()) - 1;
}

void StageSpanObserver(void* ctx, const cote::StageEvent& event) {
  auto* c = static_cast<StageSpanContext*>(ctx);
  // Plan-mode stages are the optimizer's work, estimate-mode stages the
  // estimator's (core) work; the name carries the layer.
  static const char* const kNames[2][5] = {
      {"optimizer.stage.none", "optimizer.stage.bind", "optimizer.stage.enumerate",
       "optimizer.stage.complete", "optimizer.stage.finalize"},
      {"core.stage.none", "core.stage.bind", "core.stage.enumerate",
       "core.stage.complete", "core.stage.finalize"}};
  const int stage = static_cast<int>(event.stage);
  const char* name = kNames[event.estimate_mode ? 1 : 0][stage >= 0 && stage < 5 ? stage : 0];
  const double end = Now();
  c->tracer->Add(name, end - event.seconds, end, c->parent, c->request);
}

std::vector<double> SelfSeconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    // Union of the children's intervals, clipped to the parent's.
    double covered = 0;
    double run_start = 0, run_end = 0;
    bool open = false;
    for (auto [a, b] : kids) {
      a = std::max(a, s.start);
      b = std::min(b, s.end);
      if (b <= a) continue;
      if (open && a <= run_end) {
        run_end = std::max(run_end, b);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = a;
      run_end = b;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[i] = std::max(0.0, (s.end - s.start) - covered);
  }
  return self;
}

namespace {

std::map<std::string, SpanTotals> Reduce(const std::vector<Span>& spans,
                                         bool by_layer) {
  const std::vector<double> self = SelfSeconds(spans);
  std::map<std::string, SpanTotals> out;
  for (size_t i = 0; i < spans.size(); ++i) {
    std::string key = spans[i].name;
    if (by_layer) key = key.substr(0, key.find('.'));
    SpanTotals& t = out[key];
    ++t.count;
    t.total_seconds += spans[i].end - spans[i].start;
    t.self_seconds += self[i];
  }
  return out;
}

}  // namespace

std::map<std::string, SpanTotals> ReduceByName(const std::vector<Span>& spans) {
  return Reduce(spans, /*by_layer=*/false);
}

std::map<std::string, SpanTotals> ReduceByLayer(
    const std::vector<Span>& spans) {
  return Reduce(spans, /*by_layer=*/true);
}

}  // namespace perfbench
