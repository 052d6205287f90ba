// Multi-head self-attention built from four K-FAC-tracked linears
// (Wq, Wk, Wv, Wo) — four of the paper's six preconditioned layers per
// block. Wq, Wk and Wv read the same input, so they share one cached input
// and one Kronecker A factor; each keeps its own B factor and inverses.
#pragma once

#include "src/nn/linear.h"

namespace pf {

class MultiHeadSelfAttention {
 public:
  MultiHeadSelfAttention(std::size_t d_model, std::size_t n_heads, Rng& rng,
                         const std::string& name);
  // A move re-declares the shared input on the new wq (the layers hold a
  // pointer to it); the layer is not copied or assigned.
  MultiHeadSelfAttention(MultiHeadSelfAttention&& o) noexcept;
  MultiHeadSelfAttention& operator=(MultiHeadSelfAttention&&) = delete;

  // x is [batch·seq × d_model]; attention runs within each sequence. The
  // score/softmax/AV work parallelizes one task per (batch, head) over the
  // context. Each task multiplies its head's blocks of Q/K/V in place
  // through GEMM views (linalg/gemm.h) and overwrites its own block of the
  // output, so every thread count is bitwise identical to serial (see
  // exec_context.h). wq, wk and wv read the same x, and the layer declares
  // it (Linear::read_input_of): wq caches x — with an rvalue x a training
  // forward hands x itself over, with a const x it copies it once — and wk
  // and wv read wq's cache (read it back through cached_input()). An
  // inference forward only reads x. The per-head scores and their softmax
  // are written once, into the head's probs_ slot (its storage kept when
  // the shape matches) or, in an inference forward, into a scratch buffer
  // per task chunk.
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

  // x of the last training forward and dy of the last backward, as wq and
  // wo cache them.
  const Matrix& cached_input() const { return wq_.cached_input(); }
  const Matrix& cached_output_grad() const {
    return wo_.cached_output_grad();
  }

  std::vector<Param*> params();
  // wq, wk, wv, wo. wk and wv read wq's input, so input_owners() of this
  // list is {0, 0, 0, 3}: the K-FAC engine folds one curvature-A chain for
  // the three and gives wk and wv wq's A factor.
  std::vector<Linear*> kfac_linears() { return {&wq_, &wk_, &wv_, &wo_}; }

  // Cache externalization for pipeline stages (see linear.h): bundles the
  // attention-internal caches with the four projection linears' (wk's and
  // wv's hold no input).
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
  // The one declaration of the shared input: wk and wv read wq's.
  void share_input();

  std::size_t d_model_, n_heads_, d_head_;
  Linear wq_, wk_, wv_, wo_;
  // Caches for backward.
  Matrix q_, k_, v_;
  std::vector<Matrix> probs_;  // one [seq × seq] per (batch, head)
  std::size_t batch_ = 0, seq_ = 0;
};

}  // namespace pf
