#include "stats.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {
namespace {

// 1-based nearest rank of `pct` in a sample of n (n > 0).
size_t NearestRank(size_t n, double pct) {
  size_t rank = static_cast<size_t>(std::ceil(pct / 100.0 * static_cast<double>(n)));
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

double Percentile(std::vector<double> xs, double pct) {
  if (xs.empty()) return 0;
  std::sort(xs.begin(), xs.end());
  return xs[NearestRank(xs.size(), pct) - 1];
}

double Median(const std::vector<double>& xs) { return Percentile(xs, 50); }

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

Tail TailPercentile(const std::vector<double>& xs) {
  Tail tail;
  tail.n = xs.size();
  if (xs.empty()) return tail;
  std::vector<double> sorted = xs;
  std::sort(sorted.begin(), sorted.end());
  for (double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    const size_t rank = NearestRank(sorted.size(), pct);
    const size_t beyond = sorted.size() - rank;
    if (beyond >= kMinSamplesBeyond) {
      tail.pct = pct;
      tail.value = sorted[rank - 1];
      tail.beyond = beyond;
      return tail;
    }
  }
  return tail;  // too few samples for any tail
}

Tail TailAt(const std::vector<double>& xs, double pct) {
  if (xs.empty()) return TailPercentile(xs);
  const size_t rank = NearestRank(xs.size(), pct);
  const size_t beyond = xs.size() - rank;
  if (beyond < kMinSamplesBeyond) return TailPercentile(xs);
  Tail tail;
  tail.pct = pct;
  tail.value = Percentile(xs, pct);
  tail.beyond = beyond;
  tail.n = xs.size();
  return tail;
}

}  // namespace perfbench
