#include "src/nn/activations.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/linalg/exp_span.h"

namespace pf {

namespace {
constexpr double kSqrt2OverPi = 0.7978845608028654;
constexpr double kGeluC = 0.044715;
// e^700 ≈ 1e304 is finite, and past it q = 2/(e^{2u} + 1) < 2e-304 leaves
// GELU = v and GELU' = 1 to the last bit; without the clamp e^{2u} would
// overflow and e^{2u}·q turn into ∞·0.
constexpr double kMaxTwoU = 700.0;

// GELU(v) = ½v·(1 + tanh u) and GELU'(v) for u = √(2/π)(v + 0.044715v³),
// over n contiguous elements, from one exp_span call: with E = e^{2u} and
// t = tanh u,
//   1 − t = q = 2/(E + 1),   1 + t = E·q,   1 − t² = (1 − t)(1 + t) = E·q·q,
// so neither form subtracts two numbers near ±1. E is staged in y (or in
// dydx when y is null) and exponentiated in place. Every GELU value and
// derivative in the library comes from here, so the stateless functions and
// the Gelu layer cannot drift apart; a null y or dydx skips that half.
void gelu_span(const double* x, std::size_t n, double* y, double* dydx) {
  double* e = y != nullptr ? y : dydx;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = x[i];
    const double two_u = 2.0 * kSqrt2OverPi * (v + kGeluC * v * v * v);
    e[i] = two_u > kMaxTwoU ? kMaxTwoU : two_u;
  }
  exp_span(e, e, n);
  for (std::size_t i = 0; i < n; ++i) {
    const double v = x[i];
    const double q = 2.0 / (e[i] + 1.0);
    const double one_plus_t = e[i] * q;
    if (dydx != nullptr) {
      const double du = kSqrt2OverPi * (1.0 + 3.0 * kGeluC * v * v);
      dydx[i] = 0.5 * one_plus_t + 0.5 * v * one_plus_t * q * du;
    }
    if (y != nullptr) y[i] = 0.5 * v * one_plus_t;
  }
}
}  // namespace

Matrix gelu(const Matrix& x, const ExecContext& ctx) {
  Matrix y = Matrix::uninitialized(x.rows(), x.cols());
  ctx.parallel_for(x.rows(), [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r)
      gelu_span(x.row(r), x.cols(), y.row(r), nullptr);
  });
  return y;
}

Matrix gelu_backward(const Matrix& x, const Matrix& dy,
                     const ExecContext& ctx) {
  PF_CHECK(x.same_shape(dy));
  Matrix dx = Matrix::uninitialized(x.rows(), x.cols());
  ctx.parallel_for(x.rows(), [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      double* dxr = dx.row(r);
      const double* dyr = dy.row(r);
      gelu_span(x.row(r), x.cols(), nullptr, dxr);
      for (std::size_t c = 0; c < x.cols(); ++c) dxr[c] *= dyr[c];
    }
  });
  return dx;
}

namespace {

// Softmax of the R consecutive rows at x (row length cols, contiguous) into
// p. Each row's max and sum still ascend its columns; the R rows' chains
// only run side by side, and one exp_span covers the block. The bits are
// those of one row at a time.
template <std::size_t R>
void softmax_block(const double* x, double* p, std::size_t cols) {
  double mx[R], sum[R];
  for (std::size_t i = 0; i < R; ++i) mx[i] = x[i * cols];
  for (std::size_t c = 1; c < cols; ++c)
    for (std::size_t i = 0; i < R; ++i)
      mx[i] = std::max(mx[i], x[i * cols + c]);
  for (std::size_t i = 0; i < R; ++i)
    for (std::size_t c = 0; c < cols; ++c)
      p[i * cols + c] = x[i * cols + c] - mx[i];
  exp_span(p, p, R * cols);
  for (std::size_t i = 0; i < R; ++i) sum[i] = 0.0;
  for (std::size_t c = 0; c < cols; ++c)
    for (std::size_t i = 0; i < R; ++i) sum[i] += p[i * cols + c];
  for (std::size_t i = 0; i < R; ++i) {
    const double inv = 1.0 / sum[i];
    for (std::size_t c = 0; c < cols; ++c) p[i * cols + c] *= inv;
  }
}

// dx = (p ∘ (dy − rowsum(dy ∘ p))) · scale for R consecutive rows, their
// dot-product chains side by side, each ascending its columns.
template <std::size_t R>
void softmax_backward_block(const double* p, const double* dy, double* dx,
                            std::size_t cols, double scale) {
  double dot[R] = {};
  for (std::size_t c = 0; c < cols; ++c)
    for (std::size_t i = 0; i < R; ++i)
      dot[i] += p[i * cols + c] * dy[i * cols + c];
  for (std::size_t i = 0; i < R; ++i)
    for (std::size_t c = 0; c < cols; ++c) {
      const double g = p[i * cols + c] * (dy[i * cols + c] - dot[i]);
      dx[i * cols + c] = g * scale;
    }
}

constexpr std::size_t kSoftmaxRows = 4;  // row chains run side by side

}  // namespace

namespace {

// Softmax of x's rows into p, which may be x itself: softmax_block reads a
// row whole (its max) before it writes any of it.
void softmax_rows_to(const Matrix& x, Matrix& p, const ExecContext& ctx) {
  const std::size_t cols = x.cols();
  PF_CHECK(cols > 0 || x.rows() == 0)
      << "softmax_rows of a " << x.rows() << "x" << cols
      << " matrix: a row needs at least one column";
  ctx.parallel_for(x.rows(), [&](std::size_t r0, std::size_t r1) {
    std::size_t r = r0;
    for (; r + kSoftmaxRows <= r1; r += kSoftmaxRows)
      softmax_block<kSoftmaxRows>(x.row(r), p.row(r), cols);
    for (; r < r1; ++r) softmax_block<1>(x.row(r), p.row(r), cols);
  });
}

}  // namespace

Matrix softmax_rows(const Matrix& logits, const ExecContext& ctx) {
  Matrix p = Matrix::uninitialized(logits.rows(), logits.cols());
  softmax_rows_to(logits, p, ctx);
  return p;
}

void softmax_rows_in_place(Matrix& x, const ExecContext& ctx) {
  softmax_rows_to(x, x, ctx);
}

void softmax_rows_backward_in_place(const Matrix& p, Matrix& dy,
                                    const ExecContext& ctx, double scale) {
  PF_CHECK(p.same_shape(dy));
  const std::size_t cols = p.cols();
  // Each row's dot product is finished before the row is overwritten.
  ctx.parallel_for(p.rows(), [&](std::size_t r0, std::size_t r1) {
    std::size_t r = r0;
    for (; r + kSoftmaxRows <= r1; r += kSoftmaxRows)
      softmax_backward_block<kSoftmaxRows>(p.row(r), dy.row(r), dy.row(r),
                                           cols, scale);
    for (; r < r1; ++r)
      softmax_backward_block<1>(p.row(r), dy.row(r), dy.row(r), cols, scale);
  });
}

Matrix Gelu::forward(const Matrix& x, bool training, const ExecContext& ctx) {
  if (!training) return gelu(x, ctx);
  Matrix y = Matrix::uninitialized(x.rows(), x.cols());
  if (!dydx_cache_.same_shape(x))
    dydx_cache_ = Matrix::uninitialized(x.rows(), x.cols());
  ctx.parallel_for(x.rows(), [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r)
      gelu_span(x.row(r), x.cols(), y.row(r), dydx_cache_.row(r));
  });
  return y;
}

Matrix Gelu::backward(const Matrix& dy, const ExecContext& ctx) {
  PF_CHECK(!dydx_cache_.empty());
  PF_CHECK(dydx_cache_.same_shape(dy));
  Matrix dx = Matrix::uninitialized(dy.rows(), dy.cols());
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
