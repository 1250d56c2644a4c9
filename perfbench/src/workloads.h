// The four workloads and what each reports. See ../README.md for why each
// workload exists and which layer metric should move which end-to-end
// metric.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// One reported number. `samples` is how many observations it summarizes
/// and `base` (when non-empty) states what a ratio is taken over. Only
/// metrics listed in BENCHMARK.json go into the final JSON line; the rest
/// are printed for people.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  int64_t samples = 0;
  std::string base;
  bool listed = true;
};

struct Report {
  std::vector<Metric> end_to_end;  ///< printed with --trace 0
  std::vector<Metric> per_layer;   ///< printed with --trace 1
  /// Free-form lines printed before the metrics (per-rung tables, span
  /// self times, ...).
  std::vector<std::string> notes;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// First few failed checks, for the log.
  std::vector<std::string> failures;
};

/// Runs one workload; false for an unknown workload name.
bool RunWorkload(const RunOptions& options, Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
