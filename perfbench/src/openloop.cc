#include "openloop.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/check.h"

namespace perfbench {

OpenLoopTiming AccountOpenLoop(const std::vector<double>& due,
                               const std::vector<double>& submit_start,
                               const std::vector<double>& submit_end,
                               const std::vector<double>& finish) {
  const size_t n = due.size();
  COTE_CHECK(submit_start.size() == n && submit_end.size() == n &&
             finish.size() == n);
  OpenLoopTiming t;
  t.latency_s.resize(n);
  t.lateness_s.resize(n);
  t.submit_s.resize(n);
  // In the system at due[i]: the i earlier requests minus those already
  // finished. No later request can have finished before due[i] (each
  // finishes after its own, later, due time), so counting finishes over
  // all requests is exact.
  std::vector<double> sorted_finish = finish;
  std::sort(sorted_finish.begin(), sorted_finish.end());
  std::vector<double> backlog(n);
  for (size_t i = 0; i < n; ++i) {
    t.latency_s[i] = finish[i] - due[i];
    t.lateness_s[i] = std::max(0.0, submit_start[i] - due[i]);
    t.submit_s[i] = submit_end[i] - submit_start[i];
    const size_t done = static_cast<size_t>(
        std::upper_bound(sorted_finish.begin(), sorted_finish.end(), due[i]) -
        sorted_finish.begin());
    const size_t in_system = done >= i ? 0 : i - done;
    backlog[i] = static_cast<double>(in_system);
    t.backlog_max = std::max(t.backlog_max, in_system);
  }
  if (n >= 8) {
    const size_t q = n / 4;
    double first = 0, last = 0;
    for (size_t i = 0; i < q; ++i) {
      first += backlog[i];
      last += backlog[n - 1 - i];
    }
    first /= static_cast<double>(q);
    last /= static_cast<double>(q);
    t.backlog_growing = last > 2 * first + 2;
  }
  return t;
}

void WaitUntil(double t) {
  for (;;) {
    const double left = t - Now();
    if (left <= 0) return;
    if (left > 300e-6) {
      std::this_thread::sleep_for(std::chrono::duration<double>(left - 200e-6));
    }
  }
}

}  // namespace perfbench
