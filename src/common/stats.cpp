#include "src/common/stats.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace pf {

std::vector<double> smooth_moving_average(const std::vector<double>& y,
                                          std::size_t half_window) {
  std::vector<double> out(y.size());
  const long n = static_cast<long>(y.size());
  const long h = static_cast<long>(half_window);
  for (long i = 0; i < n; ++i) {
    const long lo = std::max(0L, i - h);
    const long hi = std::min(n - 1, i + h);
    double sum = 0.0;
    for (long j = lo; j <= hi; ++j) sum += y[static_cast<std::size_t>(j)];
    out[static_cast<std::size_t>(i)] = sum / static_cast<double>(hi - lo + 1);
  }
  return out;
}

double percentile_nearest_rank(std::vector<double> xs, double pct) {
  PF_CHECK(!xs.empty()) << "percentile of an empty sample";
  PF_CHECK(pct > 0.0 && pct <= 100.0) << "percentile " << pct
                                      << " outside (0, 100]";
  std::sort(xs.begin(), xs.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(xs.size())));
  return xs[std::min(xs.size(), std::max<std::size_t>(rank, 1)) - 1];
}

long first_index_at_or_below(const std::vector<double>& y, double target,
                             std::size_t ignore_first) {
  for (std::size_t i = ignore_first; i < y.size(); ++i) {
    if (y[i] <= target) return static_cast<long>(i);
  }
  return -1;
}

}  // namespace pf
