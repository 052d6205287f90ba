#include "src/nn/loss.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/nn/activations.h"

namespace pf {

LossResult softmax_cross_entropy(const Matrix& logits,
                                 const std::vector<int>& labels,
                                 const ExecContext& ctx) {
  PF_CHECK(labels.size() == logits.rows());
  LossResult res;
  res.dlogits = Matrix::uninitialized(logits.rows(), logits.cols());
  const Matrix p = softmax_rows(logits, ctx);
  // Serial scalar reduction: the loss sums counted rows in ascending order,
  // the seed sequence, so the value is thread-count-independent.
  double total = 0.0;
  for (std::size_t r = 0; r < logits.rows(); ++r) {
    if (labels[r] < 0) continue;
    PF_CHECK(static_cast<std::size_t>(labels[r]) < logits.cols())
        << "label " << labels[r] << " out of " << logits.cols();
    ++res.counted;
    total += -std::log(std::max(p(r, static_cast<std::size_t>(labels[r])),
                                1e-300));
  }
  if (res.counted == 0) {
    res.dlogits.fill(0.0);
    return res;
  }
  const double inv = 1.0 / static_cast<double>(res.counted);
  res.loss = total * inv;
  // Ignored rows get zeros; every element is written once.
  const std::size_t cols = logits.cols();
  ctx.parallel_for(logits.rows(), [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      double* d = res.dlogits.row(r);
      if (labels[r] < 0) {
        std::fill_n(d, cols, 0.0);
        continue;
      }
      const double* pr = p.row(r);
      for (std::size_t c = 0; c < cols; ++c) d[c] = pr[c] * inv;
      d[static_cast<std::size_t>(labels[r])] -= inv;
    }
  });
  return res;
}

}  // namespace pf
