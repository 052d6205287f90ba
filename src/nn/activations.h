// GELU activation (tanh approximation, as in BERT) and row-wise softmax.
//
// Both take their exponentials from the exp kernel (src/linalg/exp_span.h),
// not libm: GELU writes tanh u through e^{2u}, softmax exponentiates each
// row's x − max. The kernel returns the same bits on every SIMD tier, so
// these functions do too, on any host.
//
// All four free functions parallelize their row loops over the ExecContext
// (rows are independent, so every thread count is bitwise identical to the
// serial seed path); the defaulted context is serial.
#pragma once

#include "src/common/exec_context.h"
#include "src/linalg/matrix.h"

namespace pf {

// Stateless forward; callers keep the pre-activation for backward.
Matrix gelu(const Matrix& x, const ExecContext& ctx = {});
// dL/dx given pre-activation x and upstream gradient dy.
Matrix gelu_backward(const Matrix& x, const Matrix& dy,
                     const ExecContext& ctx = {});

// Row-wise softmax (numerically stable).
Matrix softmax_rows(const Matrix& logits, const ExecContext& ctx = {});
// Backward through softmax given its output p and upstream dy:
// dx = p ∘ (dy − rowsum(dy ∘ p)).
Matrix softmax_rows_backward(const Matrix& p, const Matrix& dy,
                             const ExecContext& ctx = {});

// Stateful GELU layer for use inside blocks. A training forward computes
// GELU'(x) from the same exp_span call as its output and caches that
// derivative instead of x (same size), so backward is one multiply per
// element, bitwise equal to gelu_backward(x, dy). An inference forward
// (training = false) writes no cache.
class Gelu {
 public:
  Matrix forward(const Matrix& x, bool training = true,
                 const ExecContext& ctx = {});
  Matrix backward(const Matrix& dy, const ExecContext& ctx = {});

  // Cache externalization for pipeline stages (see linear.h).
  struct Cache {
    Matrix dydx;  // GELU'(x) of the last training forward, x's shape
  };
  Cache save_cache() {
    Cache c{std::move(dydx_cache_)};
    dydx_cache_ = Matrix();
    return c;
  }
  void restore_cache(Cache&& c) { dydx_cache_ = std::move(c.dydx); }

 private:
  Matrix dydx_cache_;
};

}  // namespace pf
