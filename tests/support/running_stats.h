// Welford running mean/variance: the moment oracle the RNG and smoothing
// tests check distributions against.
#pragma once

#include <cstddef>

namespace pf {

class RunningStats {
 public:
  void add(double x);
  double mean() const;
  double variance() const;  // population variance
  double stddev() const;
  double min() const;
  double max() const;

 private:
  std::size_t n_ = 0;
  double mean_ = 0.0;
  double m2_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

}  // namespace pf
