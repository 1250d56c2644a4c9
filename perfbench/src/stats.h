// Sample summaries shared by every workload: nearest-rank percentiles,
// the tail rule and simple means.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (pct in [0, 100]); 0 for an empty sample.
double Percentile(std::vector<double> xs, double pct);

double Median(const std::vector<double>& xs);
double Mean(const std::vector<double>& xs);

/// The reported tail of a latency sample: the highest percentile of the
/// ladder {99.9, 99, 95, 90, 75, 50} that leaves at least
/// kMinSamplesBeyond samples strictly above its nearest-rank position, so
/// the tail is never one or two outliers. A coarse ladder keeps the chosen
/// percentile the same across runs whose sample counts differ a little.
struct Tail {
  double pct = 0;      ///< chosen percentile; 0 when the sample is too small
  double value = 0;    ///< the sample value at that percentile
  size_t beyond = 0;   ///< samples above it
  size_t n = 0;        ///< sample count
};
inline constexpr size_t kMinSamplesBeyond = 10;
Tail TailPercentile(const std::vector<double>& xs);

/// The tail at a fixed percentile `pct`, so that runs whose sample counts
/// straddle a ladder step still report the same percentile; falls back to
/// TailPercentile when fewer than kMinSamplesBeyond samples lie beyond it.
Tail TailAt(const std::vector<double>& xs, double pct);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
