// Open-loop load generator with due-time accounting.
//
// Every request has a due time fixed in advance (a Poisson schedule). The
// generator waits for it, hands the request to the system and moves on
// without waiting for the reply. Latency is measured from the *due* time,
// not from when the generator got round to submitting: if it (or the
// submit call itself) stalls, every later request is late, and that wait
// is part of what a client would see. How late the generator ran is reported
// separately as generator lateness.
#ifndef PERFBENCH_OPENLOOP_H_
#define PERFBENCH_OPENLOOP_H_

#include <cstddef>
#include <vector>

#include "trace.h"

namespace perfbench {

struct OpenLoopTiming {
  std::vector<double> latency_s;   ///< finish - due, per request
  std::vector<double> lateness_s;  ///< submit start - due, per request
  std::vector<double> submit_s;    ///< duration of each submit call
  /// Most requests in the system (due, not yet finished) at any due time.
  size_t backlog_max = 0;
  /// True when the backlog over the last quarter of the schedule averages
  /// more than twice (plus two) its level over the first quarter: the
  /// system did not keep up with the rate.
  bool backlog_growing = false;
};

/// Pure accounting over one open-loop burst. All times are offsets in
/// seconds from the same start instant.
OpenLoopTiming AccountOpenLoop(const std::vector<double>& due,
                               const std::vector<double>& submit_start,
                               const std::vector<double>& submit_end,
                               const std::vector<double>& finish);

/// Sleeps, then spins, until Now() >= t.
void WaitUntil(double t);

/// Drives one burst: for each i, waits until start + due[i], calls
/// submit(i), then calls drain(start), which blocks until every request
/// finished and returns each one's finish time as an offset from `start`.
template <typename Submit, typename Drain>
OpenLoopTiming RunOpenLoop(const std::vector<double>& due, Submit&& submit,
                           Drain&& drain) {
  std::vector<double> submit_start(due.size()), submit_end(due.size());
  const double start = Now();
  for (size_t i = 0; i < due.size(); ++i) {
    WaitUntil(start + due[i]);
    submit_start[i] = Now() - start;
    submit(i);
    submit_end[i] = Now() - start;
  }
  const std::vector<double> finish = drain(start);
  return AccountOpenLoop(due, submit_start, submit_end, finish);
}

}  // namespace perfbench

#endif  // PERFBENCH_OPENLOOP_H_
