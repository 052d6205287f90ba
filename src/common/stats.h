// Small numerically-stable statistics helpers used across the library
// (loss smoothing, utilization summaries, test assertions).
#pragma once

#include <cstddef>
#include <vector>

namespace pf {

// Welford running mean/variance accumulator.
class RunningStats {
 public:
  void add(double x);
  std::size_t count() const { return n_; }
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

// Exponential moving average with bias correction (Adam-style).
class Ema {
 public:
  explicit Ema(double decay);
  void add(double x);
  double value() const;  // bias-corrected
  bool empty() const { return n_ == 0; }

 private:
  double decay_;
  double acc_ = 0.0;
  std::size_t n_ = 0;
};

// Centered moving average smoothing with the given half-window, an offline
// stand-in for the paper's zero-phase Butterworth filtfilt smoothing of the
// pretraining loss curve (Figure 7).
std::vector<double> smooth_moving_average(const std::vector<double>& y,
                                          std::size_t half_window);

// Nearest-rank percentile: the ceil(pct/100 · n)-th smallest value.
// Throws on an empty sample or a pct outside (0, 100].
double percentile_nearest_rank(std::vector<double> xs, double pct);

// First index where the smoothed series drops to <= target, or -1.
// `ignore_first` skips an initial transient (the paper ignores fluctuations
// around step 1000).
long first_index_at_or_below(const std::vector<double>& y, double target,
                             std::size_t ignore_first = 0);

}  // namespace pf
