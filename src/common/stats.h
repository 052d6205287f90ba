// Small statistics helpers used across the library (loss smoothing,
// percentiles, convergence crossings).
#pragma once

#include <cstddef>
#include <vector>

namespace pf {

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
