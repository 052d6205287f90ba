// GELU activation (tanh approximation, as in BERT) and row-wise softmax.
//
// Both take their exponentials from the exp kernel (src/linalg/exp_span.h),
// not libm: GELU writes tanh u through e^{2u}, softmax exponentiates each
// row's x − max. The kernel returns the same bits on every SIMD tier, so
// these functions do too, on any host.
//
// All four free functions parallelize their row loops over the ExecContext
// (rows are independent, so every thread count is bitwise identical to the
// serial seed path); the defaulted context is serial. Each writes every
// element of its output once, so outputs start uninitialized (no fill).
// Softmax reads each row whole before writing it, so its in-place forms
// give the bits of the returning ones.
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
// The same, overwriting the logits with their softmax (same bits).
void softmax_rows_in_place(Matrix& x, const ExecContext& ctx = {});
// Backward through softmax given its output p and upstream dy, times
// `scale`: dx = (p ∘ (dy − rowsum(dy ∘ p))) · scale, rounding the product
// with p before the scaling (scaling a finished dx gives the same bits;
// scale 1 changes none). Overwrites dy with dx.
void softmax_rows_backward_in_place(const Matrix& p, Matrix& dy,
                                    const ExecContext& ctx = {},
                                    double scale = 1.0);

// Stateful GELU layer for use inside blocks. A training forward computes
// GELU'(x) from the same exp_span call as its output and caches that
// derivative instead of x (same size), so backward is one multiply per
// element, bitwise equal to gelu_backward(x, dy). An inference forward
// (training = false) writes no cache. A training forward writes the cache
// into the storage it holds when the shape matches.
class Gelu {
 public:
  Matrix forward(const Matrix& x, bool training = true,
                 const ExecContext& ctx = {});
  Matrix backward(const Matrix& dy, const ExecContext& ctx = {});

  // Cache externalization for pipeline stages (see linear.h).
  struct Cache {
    Matrix dydx;  // GELU'(x) of the last training forward, x's shape
  };
  Cache save_cache() { return {std::move(dydx_cache_)}; }
  void restore_cache(Cache&& c) { dydx_cache_ = std::move(c.dydx); }

 private:
  Matrix dydx_cache_;
};

}  // namespace pf
