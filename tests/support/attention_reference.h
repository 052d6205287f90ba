// Slice-copy oracle for MultiHeadSelfAttention, which multiplies each head
// in place through GEMM views. Here each (batch, head) copies its Q/K/V
// blocks out into contiguous matrices, scales the finished scores, and adds
// its results back into zeroed context/dq/dk/dv. The layer must match it
// bit for bit on every SIMD tier and thread count. The copying softmax
// backward the oracle uses sits here too; the nn suites check it directly.
#pragma once

#include <vector>

#include "src/nn/attention.h"

namespace pf {

struct AttentionReference {
  Matrix y;   // forward output
  Matrix dx;  // input gradient for upstream dy
  // Gradients of this one backward, in attn.params() order (wq, wk, wv, wo;
  // weight then bias).
  std::vector<Matrix> param_grads;
};

// softmax_rows_backward_in_place (nn/activations.h) into a fresh matrix: dx
// for softmax output p and upstream dy, dy left as it is.
Matrix softmax_rows_backward(const Matrix& p, const Matrix& dy,
                             const ExecContext& ctx = {}, double scale = 1.0);

// Runs one training forward and backward with copies of attn's four
// projections (their gradients zeroed first), serial; attn is not modified.
AttentionReference attention_slice_reference(MultiHeadSelfAttention& attn,
                                             std::size_t n_heads,
                                             const Matrix& x, const Matrix& dy,
                                             std::size_t batch,
                                             std::size_t seq);

}  // namespace pf
