#include "tests/support/running_stats.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace pf {

void RunningStats::add(double x) {
  if (n_ == 0) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
  ++n_;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
}

double RunningStats::mean() const {
  PF_CHECK(n_ > 0);
  return mean_;
}

double RunningStats::variance() const {
  PF_CHECK(n_ > 0);
  return m2_ / static_cast<double>(n_);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double RunningStats::min() const {
  PF_CHECK(n_ > 0);
  return min_;
}

double RunningStats::max() const {
  PF_CHECK(n_ > 0);
  return max_;
}

}  // namespace pf
