// Fully-connected layer with K-FAC capture hooks.
//
// Layout: x is [N_tokens × d_in], weight is [d_in × d_out], y = x·W + b.
// During training the layer caches its input (the K-FAC activations a_l)
// and, on backward, the output gradient (the K-FAC errors e_l) — exactly
// the two tensors the curvature work of PipeFisher consumes.
//
// The caches take over the buffers they are handed: pass x or dy as an
// rvalue when the caller is done with it and nothing is copied (the cache's
// previous storage goes back to the context's arena). forward() also takes
// a const x, which it copies into the cache; backward() and backward_dx()
// take dy by value, so an lvalue dy is copied on the way in. Either way the
// outputs, gradients and cached values are the same, bit for bit. Outputs
// (y, dx) are drawn from the context's arena when it has one.
#pragma once

#include "src/common/exec_context.h"
#include "src/common/rng.h"
#include "src/nn/param.h"

namespace pf {

class Linear {
 public:
  Linear(std::size_t d_in, std::size_t d_out, Rng& rng,
         const std::string& name, double init_std = 0.02);

  // y = x·W + b. Caches a copy of x when `training`. The context threads
  // the GEMM row blocks and the bias-add row loop (bitwise identical at
  // every thread count — see exec_context.h).
  Matrix forward(const Matrix& x, bool training = true,
                 const ExecContext& ctx = {});
  // The same, but a training forward takes x over as the cached input (x is
  // left empty); an inference forward only reads x, as the const form does.
  Matrix forward(Matrix&& x, bool training = true,
                 const ExecContext& ctx = {});
  // Accumulates dW, db; returns dx. Caches dy for K-FAC. db is
  // column-sharded so each bias coordinate sums its rows in serial order.
  Matrix backward(Matrix dy, const ExecContext& ctx = {});

  // Zero-bubble split of backward() (ZB-H1: Qi et al. 2023). backward_dx is
  // the B pass: caches dy, accumulates db, returns dx — everything on the
  // pipeline's critical path — and skips the dW GEMM. backward_dw is the W
  // pass: dW += xᵀ·dy from the live caches (or an externalized Cache), the
  // deferrable weight-gradient GEMM. The fused backward() is backward_dx
  // then backward_dw, so the split is BITWISE identical by construction:
  // dW touches coordinates disjoint from db/dx, and only the per-micro
  // order of dW accumulation matters — the caller (the pipeline runtime's
  // per-stage W chain) keeps it ascending.
  Matrix backward_dx(Matrix dy, const ExecContext& ctx = {});
  void backward_dw(const ExecContext& ctx = {});

  std::size_t d_in() const { return d_in_; }
  std::size_t d_out() const { return d_out_; }

  Param& weight() { return w_; }
  Param& bias() { return b_; }
  const Param& weight() const { return w_; }

  // K-FAC capture: inputs a_l [N × d_in] and errors e_l [N × d_out] of the
  // most recent forward/backward.
  const Matrix& cached_input() const { return x_cache_; }
  const Matrix& cached_output_grad() const { return dy_cache_; }
  bool has_kfac_caches() const {
    return !x_cache_.empty() && !dy_cache_.empty();
  }

  // Cache externalization for pipeline execution (stage_partition.h): a
  // stage keeps several micro-batches in flight, so the per-forward caches
  // move out into a per-micro stash after each op and come back in before
  // the matching backward. save_cache() MOVES the caches out (the layer is
  // left cache-empty) and restore_cache() MOVES the stash entry back — the
  // runtime's borrow path: backward reads but never mutates x, so the
  // buffer survives the round trip bit for bit and is re-harvested for
  // K-FAC afterwards. Stashes are only ever moved, never copied, so
  // restore_cache takes an rvalue and the compiler enforces the borrow.
  struct Cache {
    Matrix x;   // a_l of one micro-batch
    Matrix dy;  // e_l, present only after the micro's backward ran
  };
  Cache save_cache() {
    Cache c{std::move(x_cache_), std::move(dy_cache_)};
    x_cache_ = Matrix();
    dy_cache_ = Matrix();
    return c;
  }
  void restore_cache(Cache&& c) {
    x_cache_ = std::move(c.x);
    dy_cache_ = std::move(c.dy);
  }

  // W pass over an externalized cache (the pipeline runtime's deferred-dW
  // stash): dW += c.xᵀ·c.dy without touching the live caches.
  void backward_dw(const Cache& c, const ExecContext& ctx = {});

  std::vector<Param*> params() { return {&w_, &b_}; }
  const std::string& name() const { return name_; }

 private:
  // y = x·W + b, y drawn from the context's arena.
  Matrix affine(const Matrix& x, const ExecContext& ctx) const;

  std::size_t d_in_, d_out_;
  std::string name_;
  Param w_;
  Param b_;  // [1 × d_out]
  Matrix x_cache_;
  Matrix dy_cache_;
};

}  // namespace pf
