#include "src/nn/layer_norm.h"

#include <cmath>

namespace pf {

LayerNorm::LayerNorm(std::size_t dim, const std::string& name, double eps)
    : dim_(dim),
      eps_(eps),
      gamma_(1, dim, name + ".gamma"),
      beta_(1, dim, name + ".beta") {
  gamma_.w.fill(1.0);
}

Matrix LayerNorm::forward(const Matrix& x, bool training,
                          const ExecContext& ctx) {
  PF_CHECK(x.cols() == dim_);
  const std::size_t n = x.rows();
  Matrix y = Matrix::uninitialized(n, dim_);
  if (training) {
    // The storage the caches still hold when the shape matches (the stash
    // machinery moves the last micro's out, leaving them empty); the loop
    // below writes every element of y, xhat and inv_std.
    if (!xhat_.same_shape(x)) xhat_ = Matrix::uninitialized(n, dim_);
    if (inv_std_.rows() != n) inv_std_ = Matrix::uninitialized(n, 1);
  }
  // Shapes are checked above, so the loops index through row pointers.
  const double* gamma = gamma_.w.row(0);
  const double* beta = beta_.w.row(0);
  ctx.parallel_for(n, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      const double* row = x.row(r);
      double* yr = y.row(r);
      double* xh_r = training ? xhat_.row(r) : nullptr;
      double mean = 0.0;
      for (std::size_t c = 0; c < dim_; ++c) mean += row[c];
      mean /= static_cast<double>(dim_);
      double var = 0.0;
      for (std::size_t c = 0; c < dim_; ++c) {
        const double d = row[c] - mean;
        var += d * d;
      }
      var /= static_cast<double>(dim_);
      const double inv = 1.0 / std::sqrt(var + eps_);
      for (std::size_t c = 0; c < dim_; ++c) {
        const double xh = (row[c] - mean) * inv;
        if (training) xh_r[c] = xh;
        yr[c] = xh * gamma[c] + beta[c];
      }
      if (training) inv_std_.row(r)[0] = inv;
    }
  });
  return y;
}

Matrix LayerNorm::backward(const Matrix& dy, const ExecContext& ctx) {
  PF_CHECK(!xhat_.empty()) << "backward before forward";
  PF_CHECK(dy.rows() == xhat_.rows() && dy.cols() == dim_);
  const std::size_t n = dy.rows();
  const double dimd = static_cast<double>(dim_);
  Matrix dx = Matrix::uninitialized(n, dim_);
  const double* gamma = gamma_.w.row(0);
  const double* inv_std = inv_std_.data();
  // Phase 1, row-parallel: dxhat = dy ∘ gamma;
  // dx = inv_std·(dxhat − mean(dxhat) − xhat·mean(dxhat ∘ xhat)).
  ctx.parallel_for(n, [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      const double* dyr = dy.row(r);
      const double* xh = xhat_.row(r);
      double* dxr = dx.row(r);
      double mean_dxhat = 0.0, mean_dxhat_xhat = 0.0;
      for (std::size_t c = 0; c < dim_; ++c) {
        const double dxh = dyr[c] * gamma[c];
        mean_dxhat += dxh;
        mean_dxhat_xhat += dxh * xh[c];
      }
      mean_dxhat /= dimd;
      mean_dxhat_xhat /= dimd;
      for (std::size_t c = 0; c < dim_; ++c) {
        const double dxh = dyr[c] * gamma[c];
        dxr[c] = inv_std[r] * (dxh - mean_dxhat - xh[c] * mean_dxhat_xhat);
      }
    }
  });
  // Phase 2, column-sharded parameter gradients: each gamma/beta coordinate
  // accumulates its rows in ascending order — the serial sequence per
  // memory location, so every thread count is bitwise equal to serial.
  double* dgamma = gamma_.g.row(0);
  double* dbeta = beta_.g.row(0);
  ctx.parallel_for(dim_, [&](std::size_t c0, std::size_t c1) {
    for (std::size_t r = 0; r < n; ++r) {
      const double* dyr = dy.row(r);
      const double* xh = xhat_.row(r);
      for (std::size_t c = c0; c < c1; ++c) {
        dgamma[c] += dyr[c] * xh[c];
        dbeta[c] += dyr[c];
      }
    }
  });
  return dx;
}

}  // namespace pf
