#include "src/nn/activations.h"

#include <cmath>

#include "src/common/arena.h"
#include "src/common/check.h"

namespace pf {

namespace {
constexpr double kSqrt2OverPi = 0.7978845608028654;
constexpr double kGeluC = 0.044715;

// GELU(v) and GELU'(v) from one tanh. Every GELU value and derivative in
// the library comes from here, so the stateless functions and the Gelu
// layer cannot drift apart; callers that need one half let the compiler
// drop the other.
struct GeluPoint {
  double y;
  double dydx;
};

inline GeluPoint gelu_point(double v) {
  const double inner = kSqrt2OverPi * (v + kGeluC * v * v * v);
  const double t = std::tanh(inner);
  const double dinner = kSqrt2OverPi * (1.0 + 3.0 * kGeluC * v * v);
  return {0.5 * v * (1.0 + t),
          0.5 * (1.0 + t) + 0.5 * v * (1.0 - t * t) * dinner};
}
}  // namespace

Matrix gelu(const Matrix& x, const ExecContext& ctx) {
  Matrix y(x.rows(), x.cols());
  ctx.parallel_for(x.rows(), [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      const double* xr = x.row(r);
      double* yr = y.row(r);
      for (std::size_t c = 0; c < x.cols(); ++c) yr[c] = gelu_point(xr[c]).y;
    }
  });
  return y;
}

Matrix gelu_backward(const Matrix& x, const Matrix& dy,
                     const ExecContext& ctx) {
  PF_CHECK(x.same_shape(dy));
  Matrix dx(x.rows(), x.cols());
  ctx.parallel_for(x.rows(), [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      for (std::size_t c = 0; c < x.cols(); ++c)
        dx(r, c) = gelu_point(x(r, c)).dydx * dy(r, c);
    }
  });
  return dx;
}

Matrix softmax_rows(const Matrix& logits, const ExecContext& ctx) {
  Matrix p(logits.rows(), logits.cols());
  ctx.parallel_for(logits.rows(), [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      const double* row = logits.row(r);
      double mx = row[0];
      for (std::size_t c = 1; c < logits.cols(); ++c)
        mx = std::max(mx, row[c]);
      double sum = 0.0;
      for (std::size_t c = 0; c < logits.cols(); ++c) {
        const double e = std::exp(row[c] - mx);
        p(r, c) = e;
        sum += e;
      }
      const double inv = 1.0 / sum;
      for (std::size_t c = 0; c < logits.cols(); ++c) p(r, c) *= inv;
    }
  });
  return p;
}

Matrix softmax_rows_backward(const Matrix& p, const Matrix& dy,
                             const ExecContext& ctx) {
  PF_CHECK(p.same_shape(dy));
  Matrix dx(p.rows(), p.cols());
  ctx.parallel_for(p.rows(), [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      double dot = 0.0;
      for (std::size_t c = 0; c < p.cols(); ++c) dot += p(r, c) * dy(r, c);
      for (std::size_t c = 0; c < p.cols(); ++c)
        dx(r, c) = p(r, c) * (dy(r, c) - dot);
    }
  });
  return dx;
}

Matrix Gelu::forward(const Matrix& x, bool training, const ExecContext& ctx) {
  if (!training) return gelu(x, ctx);
  Matrix y(x.rows(), x.cols());
  arena_reshape(ctx.arena(), dydx_cache_, x.rows(), x.cols());
  ctx.parallel_for(x.rows(), [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      const double* xr = x.row(r);
      double* yr = y.row(r);
      double* gr = dydx_cache_.row(r);
      for (std::size_t c = 0; c < x.cols(); ++c) {
        const GeluPoint p = gelu_point(xr[c]);
        yr[c] = p.y;
        gr[c] = p.dydx;
      }
    }
  });
  return y;
}

Matrix Gelu::backward(const Matrix& dy, const ExecContext& ctx) {
  PF_CHECK(!dydx_cache_.empty());
  PF_CHECK(dydx_cache_.same_shape(dy));
  Matrix dx(dy.rows(), dy.cols());
  ctx.parallel_for(dy.rows(), [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      const double* gr = dydx_cache_.row(r);
      const double* dyr = dy.row(r);
      double* dxr = dx.row(r);
      for (std::size_t c = 0; c < dy.cols(); ++c) dxr[c] = gr[c] * dyr[c];
    }
  });
  return dx;
}

}  // namespace pf
