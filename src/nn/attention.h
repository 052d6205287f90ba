// Multi-head self-attention built from four K-FAC-tracked linears
// (Wq, Wk, Wv, Wo) — one of the paper's six preconditioned layers per block.
#pragma once

#include "src/nn/linear.h"

namespace pf {

class MultiHeadSelfAttention {
 public:
  MultiHeadSelfAttention(std::size_t d_model, std::size_t n_heads, Rng& rng,
                         const std::string& name);

  // x is [batch·seq × d_model]; attention runs within each sequence. The
  // score/softmax/AV work parallelizes one task per (batch, head) over the
  // context. Each task multiplies its head's blocks of Q/K/V in place
  // through GEMM views (linalg/gemm.h) and overwrites its own block of the
  // output, so every thread count is bitwise identical to serial (see
  // exec_context.h). wq and wk cache copies of x; with an rvalue x a
  // training forward hands x itself to wv's cache (read it back through
  // cached_input()), and an inference forward only reads it.
  Matrix forward(const Matrix& x, std::size_t batch, std::size_t seq,
                 bool training = true, const ExecContext& ctx = {});
  Matrix forward(Matrix&& x, std::size_t batch, std::size_t seq,
                 bool training = true, const ExecContext& ctx = {});
  // `dx_only` routes the four projections through Linear::backward_dx (the
  // zero-bubble B pass): their dW GEMMs are deferred to a later
  // backward_dw over the harvested caches (see stage_partition.h). dy goes
  // to wo's gradient cache (read it back through cached_output_grad()),
  // and dq, dk, dv to wq's, wk's and wv's.
  Matrix backward(Matrix dy, const ExecContext& ctx = {},
                  bool dx_only = false);

  // x of the last training forward and dy of the last backward, as wv and
  // wo cache them.
  const Matrix& cached_input() const { return wv_.cached_input(); }
  const Matrix& cached_output_grad() const {
    return wo_.cached_output_grad();
  }

  std::vector<Param*> params();
  std::vector<Linear*> kfac_linears() { return {&wq_, &wk_, &wv_, &wo_}; }

  // Cache externalization for pipeline stages (see linear.h): bundles the
  // attention-internal caches with the four projection linears'.
  struct Cache {
    Matrix q, k, v;
    std::vector<Matrix> probs;
    std::size_t batch = 0, seq = 0;
    Linear::Cache wq, wk, wv, wo;
  };
  Cache save_cache();
  void restore_cache(Cache&& c);

 private:
  // Both forwards: X is const Matrix& or Matrix, passed on to wv.
  template <typename X>
  Matrix forward_impl(X&& x, std::size_t batch, std::size_t seq,
                      bool training, const ExecContext& ctx);

  std::size_t d_model_, n_heads_, d_head_;
  Linear wq_, wk_, wv_, wo_;
  // Caches for backward.
  Matrix q_, k_, v_;
  std::vector<Matrix> probs_;  // one [seq × seq] per (batch, head)
  std::size_t batch_ = 0, seq_ = 0;
};

}  // namespace pf
