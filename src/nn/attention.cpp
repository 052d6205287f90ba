#include "src/nn/attention.h"

#include <cmath>
#include <utility>

#include "src/linalg/gemm.h"
#include "src/nn/activations.h"

namespace pf {

namespace {

// Copies the [seq × d_head] slice of one (batch, head) out of a
// [batch·seq × d_model] tensor.
Matrix slice_bh(const Matrix& x, std::size_t b, std::size_t h,
                std::size_t seq, std::size_t d_head) {
  Matrix out(seq, d_head);
  for (std::size_t s = 0; s < seq; ++s) {
    const double* row = x.row(b * seq + s);
    for (std::size_t c = 0; c < d_head; ++c) out(s, c) = row[h * d_head + c];
  }
  return out;
}

void add_slice_bh(Matrix& x, const Matrix& piece, std::size_t b,
                  std::size_t h, std::size_t seq, std::size_t d_head) {
  for (std::size_t s = 0; s < seq; ++s) {
    double* row = x.row(b * seq + s);
    for (std::size_t c = 0; c < d_head; ++c)
      row[h * d_head + c] += piece(s, c);
  }
}

}  // namespace

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
  batch_ = batch;
  seq_ = seq;
  q_ = wq_.forward(x, training, ctx);
  k_ = wk_.forward(x, training, ctx);
  v_ = wv_.forward(x, training, ctx);
  const double scale = 1.0 / std::sqrt(static_cast<double>(d_head_));

  Matrix context(batch * seq, d_model_, 0.0);
  if (training) probs_.assign(batch * n_heads_, Matrix());
  // One task per (batch, head): each writes its own probs_ slot and a
  // disjoint [seq × d_head] slice of `context` (rows of sequence b, columns
  // of head h), so any partition is race-free and bitwise identical. When
  // this loop actually fans out, the tiny per-head products run serial
  // inside each task (the parallelism budget is the loop itself); with a
  // serial outer loop they use the context's GEMM row blocks. Either choice
  // is bitwise neutral.
  const bool fan_out = ctx.nn_threads() > 1;
  const ExecContext inner = fan_out ? ExecContext() : ctx;
  ctx.parallel_for(batch * n_heads_, [&](std::size_t bh0, std::size_t bh1) {
    for (std::size_t bh = bh0; bh < bh1; ++bh) {
      const std::size_t b = bh / n_heads_;
      const std::size_t h = bh % n_heads_;
      const Matrix qb = slice_bh(q_, b, h, seq, d_head_);
      const Matrix kb = slice_bh(k_, b, h, seq, d_head_);
      const Matrix vb = slice_bh(v_, b, h, seq, d_head_);
      Matrix scores = matmul_nt(qb, kb, inner);
      scores *= scale;
      Matrix p = softmax_rows(scores, inner);
      const Matrix head_ctx = matmul(p, vb, inner);
      if (training) probs_[bh] = std::move(p);
      add_slice_bh(context, head_ctx, b, h, seq, d_head_);
    }
  });
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
  // Same task shape as forward: (batch, head) tasks write disjoint slices
  // of dq/dk/dv, with the same inner-threading rule.
  const bool fan_out = ctx.nn_threads() > 1;
  const ExecContext inner = fan_out ? ExecContext() : ctx;
  ctx.parallel_for(batch_ * n_heads_, [&](std::size_t bh0, std::size_t bh1) {
    for (std::size_t bh = bh0; bh < bh1; ++bh) {
      const std::size_t b = bh / n_heads_;
      const std::size_t h = bh % n_heads_;
      const Matrix& p = probs_[bh];
      const Matrix qb = slice_bh(q_, b, h, seq_, d_head_);
      const Matrix kb = slice_bh(k_, b, h, seq_, d_head_);
      const Matrix vb = slice_bh(v_, b, h, seq_, d_head_);
      const Matrix dctx = slice_bh(dcontext, b, h, seq_, d_head_);
      // head_ctx = p · v.
      const Matrix dp = matmul_nt(dctx, vb, inner);
      const Matrix dvb = matmul_tn(p, dctx, inner);
      // scores backward through softmax, then through q·kᵀ·scale.
      Matrix dscores = softmax_rows_backward(p, dp, inner);
      dscores *= scale;
      const Matrix dqb = matmul(dscores, kb, inner);
      const Matrix dkb = matmul_tn(dscores, qb, inner);
      add_slice_bh(dq, dqb, b, h, seq_, d_head_);
      add_slice_bh(dk, dkb, b, h, seq_, d_head_);
      add_slice_bh(dv, dvb, b, h, seq_, d_head_);
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
