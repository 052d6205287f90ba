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
}

Matrix MultiHeadSelfAttention::forward(const Matrix& x, std::size_t batch,
                                       std::size_t seq, bool training,
                                       const ExecContext& ctx) {
  PF_CHECK(x.rows() == batch * seq && x.cols() == d_model_);
  // q, k and v stay local until the end, so an inference forward leaves the
  // caches of the last training forward for its backward.
  Matrix q = wq_.forward(x, training, ctx);
  Matrix k = wk_.forward(x, training, ctx);
  Matrix v = wv_.forward(x, training, ctx);
  const double scale = 1.0 / std::sqrt(static_cast<double>(d_head_));

  Matrix context(batch * seq, d_model_, 0.0);
  if (training) probs_.assign(batch * n_heads_, Matrix());
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
  // product did. The context block starts at 0 and is written once, so
  // accumulating into it equals computing the head apart and adding it.
  const bool fan_out = ctx.nn_threads() > 1;
  const ExecContext inner = fan_out ? ExecContext() : ctx;
  ctx.parallel_for(batch * n_heads_, [&](std::size_t bh0, std::size_t bh1) {
    for (std::size_t bh = bh0; bh < bh1; ++bh) {
      const std::size_t r0 = (bh / n_heads_) * seq;
      const std::size_t c0 = (bh % n_heads_) * d_head_;
      Matrix scores(seq, seq, 0.0);
      matmul_nt_acc(ConstMatView(q, r0, c0, seq, d_head_),
                    ConstMatView(k, r0, c0, seq, d_head_), scores, scale,
                    inner);
      Matrix p = softmax_rows(scores, inner);
      matmul_acc(p, ConstMatView(v, r0, c0, seq, d_head_),
                 MatView(context, r0, c0, seq, d_head_), 1.0, inner);
      if (training) probs_[bh] = std::move(p);
    }
  });
  if (training) {
    q_ = std::move(q);
    k_ = std::move(k);
    v_ = std::move(v);
    batch_ = batch;
    seq_ = seq;
  }
  return wo_.forward(context, training, ctx);
}

Matrix MultiHeadSelfAttention::backward(const Matrix& dy,
                                        const ExecContext& ctx,
                                        bool dx_only) {
  PF_CHECK(!probs_.empty()) << "backward before forward";
  const Matrix dcontext =
      dx_only ? wo_.backward_dx(dy, ctx) : wo_.backward(dy, ctx);
  const double scale = 1.0 / std::sqrt(static_cast<double>(d_head_));

  Matrix dq(q_.rows(), d_model_, 0.0);
  Matrix dk(k_.rows(), d_model_, 0.0);
  Matrix dv(v_.rows(), d_model_, 0.0);
  // Same task shape as forward: (batch, head) tasks read their head's
  // blocks in place and accumulate into disjoint, zeroed blocks of
  // dq/dk/dv, with the same inner-threading rule.
  const bool fan_out = ctx.nn_threads() > 1;
  const ExecContext inner = fan_out ? ExecContext() : ctx;
  ctx.parallel_for(batch_ * n_heads_, [&](std::size_t bh0, std::size_t bh1) {
    for (std::size_t bh = bh0; bh < bh1; ++bh) {
      const std::size_t r0 = (bh / n_heads_) * seq_;
      const std::size_t c0 = (bh % n_heads_) * d_head_;
      const Matrix& p = probs_[bh];
      const ConstMatView dctx(dcontext, r0, c0, seq_, d_head_);
      // head_ctx = p · v.
      Matrix dp(seq_, seq_, 0.0);
      matmul_nt_acc(dctx, ConstMatView(v_, r0, c0, seq_, d_head_), dp, 1.0,
                    inner);
      matmul_tn_acc(p, dctx, MatView(dv, r0, c0, seq_, d_head_), 1.0, inner);
      // scores backward through softmax, then through q·kᵀ·scale.
      Matrix dscores = softmax_rows_backward(p, dp, inner);
      dscores *= scale;
      matmul_acc(dscores, ConstMatView(k_, r0, c0, seq_, d_head_),
                 MatView(dq, r0, c0, seq_, d_head_), 1.0, inner);
      matmul_tn_acc(dscores, ConstMatView(q_, r0, c0, seq_, d_head_),
                    MatView(dk, r0, c0, seq_, d_head_), 1.0, inner);
    }
  });
  Matrix dx = dx_only ? wq_.backward_dx(dq, ctx) : wq_.backward(dq, ctx);
  dx += dx_only ? wk_.backward_dx(dk, ctx) : wk_.backward(dk, ctx);
  dx += dx_only ? wv_.backward_dx(dv, ctx) : wv_.backward(dv, ctx);
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
  q_ = Matrix();
  k_ = Matrix();
  v_ = Matrix();
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
