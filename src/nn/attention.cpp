#include "src/nn/attention.h"

#include <cmath>
#include <utility>

#include "src/linalg/gemm.h"
#include "src/nn/activations.h"

namespace pf {

MultiHeadSelfAttention::MultiHeadSelfAttention(std::size_t d_model,
                                               std::size_t n_heads, Rng& rng,
                                               const std::string& name)
    : d_model_(d_model),
      n_heads_(n_heads),
      d_head_(d_model / n_heads),
      wq_(d_model, d_model, rng, name + ".wq"),
      wk_(d_model, d_model, rng, name + ".wk"),
      wv_(d_model, d_model, rng, name + ".wv"),
      wo_(d_model, d_model, rng, name + ".wo") {
  PF_CHECK(d_model % n_heads == 0)
      << "d_model " << d_model << " not divisible by heads " << n_heads;
  share_input();
}

MultiHeadSelfAttention::MultiHeadSelfAttention(
    MultiHeadSelfAttention&& o) noexcept
    : d_model_(o.d_model_),
      n_heads_(o.n_heads_),
      d_head_(o.d_head_),
      wq_(std::move(o.wq_)),
      wk_(std::move(o.wk_)),
      wv_(std::move(o.wv_)),
      wo_(std::move(o.wo_)),
      q_(std::move(o.q_)),
      k_(std::move(o.k_)),
      v_(std::move(o.v_)),
      probs_(std::move(o.probs_)),
      batch_(o.batch_),
      seq_(o.seq_) {
  share_input();
}

void MultiHeadSelfAttention::share_input() {
  wk_.read_input_of(wq_);
  wv_.read_input_of(wq_);
}

template <typename X>
Matrix MultiHeadSelfAttention::forward_impl(X&& x, std::size_t batch,
                                            std::size_t seq, bool training,
                                            const ExecContext& ctx) {
  PF_CHECK(x.rows() == batch * seq && x.cols() == d_model_);
  // q, k and v stay local until the end, so an inference forward leaves the
  // caches of the last training forward for its backward. wq caches the
  // input (an rvalue x is its to take); wk and wv read that one buffer.
  Matrix q = wq_.forward(std::forward<X>(x), training, ctx);
  const Matrix& in = training ? wq_.cached_input() : x;
  Matrix k = wk_.forward(in, training, ctx);
  Matrix v = wv_.forward(in, training, ctx);
  const double scale = 1.0 / std::sqrt(static_cast<double>(d_head_));

  Matrix context = Matrix::uninitialized(batch * seq, d_model_);
  if (training) probs_.resize(batch * n_heads_);
  // One task per (batch, head): each writes its own probs_ slot and a
  // disjoint [seq × d_head] block of `context` (rows of sequence b, columns
  // of head h), so any partition is race-free and bitwise identical. When
  // this loop actually fans out, the tiny per-head products run serial
  // inside each task (the parallelism budget is the loop itself); with a
  // serial outer loop they use the context's GEMM row blocks. Either choice
  // is bitwise neutral.
  //
  // Heads are multiplied in place through views of q, k, v and context.
  // The scale rides in as the scores product's alpha: for d_head ≤ 256 (one
  // k block) that rounds scale·acc once per score, as scaling the finished
  // product did. The overwriting products write every score and every
  // element of the head's context block exactly once, with the bits a
  // zeroed block accumulated into would get. The softmax overwrites the
  // scores: a training forward writes them into the head's probs_ slot (its
  // old storage when the shape matches), an inference forward into one
  // scratch buffer per chunk.
  const bool fan_out = ctx.nn_threads() > 1;
  const ExecContext inner = fan_out ? ExecContext() : ctx;
  ctx.parallel_for(batch * n_heads_, [&](std::size_t bh0, std::size_t bh1) {
    Matrix scratch;
    if (!training) scratch = Matrix::uninitialized(seq, seq);
    for (std::size_t bh = bh0; bh < bh1; ++bh) {
      const std::size_t r0 = (bh / n_heads_) * seq;
      const std::size_t c0 = (bh % n_heads_) * d_head_;
      Matrix& p = training ? probs_[bh] : scratch;
      if (training && (p.rows() != seq || p.cols() != seq))
        p = Matrix::uninitialized(seq, seq);
      matmul_nt_set(ConstMatView(q, r0, c0, seq, d_head_),
                    ConstMatView(k, r0, c0, seq, d_head_), p, scale, inner);
      softmax_rows_in_place(p, inner);
      matmul_set(p, ConstMatView(v, r0, c0, seq, d_head_),
                 MatView(context, r0, c0, seq, d_head_), 1.0, inner);
    }
  });
  if (!training) return wo_.forward(context, false, ctx);
  q_ = std::move(q);
  k_ = std::move(k);
  v_ = std::move(v);
  batch_ = batch;
  seq_ = seq;
  return wo_.forward(std::move(context), true, ctx);
}

Matrix MultiHeadSelfAttention::forward(const Matrix& x, std::size_t batch,
                                       std::size_t seq, bool training,
                                       const ExecContext& ctx) {
  return forward_impl(x, batch, seq, training, ctx);
}

Matrix MultiHeadSelfAttention::forward(Matrix&& x, std::size_t batch,
                                       std::size_t seq, bool training,
                                       const ExecContext& ctx) {
  return forward_impl(std::move(x), batch, seq, training, ctx);
}

Matrix MultiHeadSelfAttention::backward(Matrix dy, const ExecContext& ctx,
                                        bool dx_only) {
  PF_CHECK(!probs_.empty()) << "backward before forward";
  // Each projection takes its output gradient over as its K-FAC cache.
  const auto back = [&](Linear& l, Matrix&& g) {
    return dx_only ? l.backward_dx(std::move(g), ctx)
                   : l.backward(std::move(g), ctx);
  };
  Matrix dcontext = back(wo_, std::move(dy));
  const double scale = 1.0 / std::sqrt(static_cast<double>(d_head_));

  Matrix dq = Matrix::uninitialized(q_.rows(), d_model_);
  Matrix dk = Matrix::uninitialized(k_.rows(), d_model_);
  Matrix dv = Matrix::uninitialized(v_.rows(), d_model_);
  // Same task shape as forward: (batch, head) tasks read their head's
  // blocks in place and overwrite disjoint blocks of dq/dk/dv, each exactly
  // once, with the same inner-threading rule. The softmax backward
  // overwrites dp with dscores; one dp buffer serves every task of a chunk.
  const bool fan_out = ctx.nn_threads() > 1;
  const ExecContext inner = fan_out ? ExecContext() : ctx;
  ctx.parallel_for(batch_ * n_heads_, [&](std::size_t bh0, std::size_t bh1) {
    Matrix dp = Matrix::uninitialized(seq_, seq_);
    for (std::size_t bh = bh0; bh < bh1; ++bh) {
      const std::size_t r0 = (bh / n_heads_) * seq_;
      const std::size_t c0 = (bh % n_heads_) * d_head_;
      const Matrix& p = probs_[bh];
      const ConstMatView dctx(dcontext, r0, c0, seq_, d_head_);
      // head_ctx = p · v.
      matmul_nt_set(dctx, ConstMatView(v_, r0, c0, seq_, d_head_), dp, 1.0,
                    inner);
      matmul_tn_set(p, dctx, MatView(dv, r0, c0, seq_, d_head_), 1.0, inner);
      // scores backward through softmax, then through q·kᵀ·scale (the
      // softmax backward applies the scale in its own loop).
      softmax_rows_backward_in_place(p, dp, inner, scale);
      matmul_set(dp, ConstMatView(k_, r0, c0, seq_, d_head_),
                 MatView(dq, r0, c0, seq_, d_head_), 1.0, inner);
      matmul_tn_set(dp, ConstMatView(q_, r0, c0, seq_, d_head_),
                    MatView(dk, r0, c0, seq_, d_head_), 1.0, inner);
    }
  });
  dcontext = Matrix();
  // dx sums the projections' input gradients in q, k, v order.
  Matrix dx = back(wq_, std::move(dq));
  dx += back(wk_, std::move(dk));
  dx += back(wv_, std::move(dv));
  return dx;
}

MultiHeadSelfAttention::Cache MultiHeadSelfAttention::save_cache() {
  Cache c;
  c.q = std::move(q_);
  c.k = std::move(k_);
  c.v = std::move(v_);
  c.probs = std::move(probs_);
  c.batch = batch_;
  c.seq = seq_;
  c.wq = wq_.save_cache();
  c.wk = wk_.save_cache();
  c.wv = wv_.save_cache();
  c.wo = wo_.save_cache();
  probs_.clear();
  return c;
}

void MultiHeadSelfAttention::restore_cache(Cache&& c) {
  q_ = std::move(c.q);
  k_ = std::move(c.k);
  v_ = std::move(c.v);
  probs_ = std::move(c.probs);
  batch_ = c.batch;
  seq_ = c.seq;
  wq_.restore_cache(std::move(c.wq));
  wk_.restore_cache(std::move(c.wk));
  wv_.restore_cache(std::move(c.wv));
  wo_.restore_cache(std::move(c.wo));
}

std::vector<Param*> MultiHeadSelfAttention::params() {
  std::vector<Param*> out;
  for (Linear* l : kfac_linears())
    for (Param* p : l->params()) out.push_back(p);
  return out;
}

}  // namespace pf
