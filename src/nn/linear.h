// Fully-connected layer with K-FAC capture hooks.
//
// Layout: x is [N_tokens × d_in], weight is [d_in × d_out], y = x·W + b.
// During training the layer caches its input (the K-FAC activations a_l)
// and, on backward, the output gradient (the K-FAC errors e_l) — exactly
// the two tensors the curvature work of PipeFisher consumes.
//
// The caches take over the buffers they are handed: pass x or dy as an
// rvalue when the caller is done with it and nothing is copied (the cache's
// previous storage is freed, back to Matrix's storage pool). forward() also
// takes a const x, which it copies into the cache; backward() and
// backward_dx() take dy by value, so an lvalue dy is copied on the way in.
// Either way the outputs, gradients and cached values are the same, bit
// for bit. Outputs (y, dx) start uninitialized.
//
// Shared input: the layer that holds two linears reading the same x
// declares it with read_input_of() (attention's wk and wv read wq's). The
// reading layer's training forward is then handed the other layer's cached
// input and caches none of its own; cached_input(), the backward and the W
// pass read that one buffer. input_owners() turns the declarations of
// a layer list into indices, which is how the K-FAC engine, the pipeline
// stage's stashes and the step plan learn that such a layer's curvature-A
// statistics are its input owner's.
#pragma once

#include <vector>

#include "src/common/exec_context.h"
#include "src/common/rng.h"
#include "src/nn/param.h"

namespace pf {

class Linear {
 public:
  Linear(std::size_t d_in, std::size_t d_out, Rng& rng,
         const std::string& name, double init_std = 0.02);

  // y = x·W + b. Caches a copy of x when `training` (a layer that reads
  // another's input must be handed that layer's cached_input() and caches
  // nothing). The context threads the GEMM row blocks and the bias-add row
  // loop (bitwise identical at every thread count — see exec_context.h).
  Matrix forward(const Matrix& x, bool training = true,
                 const ExecContext& ctx = {});
  // The same, but a training forward takes x over as the cached input (x is
  // left empty); an inference forward only reads x, as the const form does.
  Matrix forward(Matrix&& x, bool training = true,
                 const ExecContext& ctx = {});

  // Declares that this layer reads the input `owner` caches: from now on a
  // training forward takes owner.cached_input() and caches no input of its
  // own. `owner` must own its input and outlive the declaration. A copied
  // or moved layer reads its own input again: the layer that holds both
  // re-declares the pair when it moves.
  void read_input_of(const Linear& owner);
  // The layer whose cache holds this layer's input: this, or the layer
  // read_input_of() named.
  const Linear* input_owner() const {
    return input_of_.layer != nullptr ? input_of_.layer : this;
  }
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
  // most recent forward/backward. The input is the input owner's cache.
  const Matrix& cached_input() const { return input_owner()->x_cache_; }
  const Matrix& cached_output_grad() const { return dy_cache_; }
  bool has_kfac_caches() const {
    return !cached_input().empty() && !dy_cache_.empty();
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
  Cache save_cache() { return {std::move(x_cache_), std::move(dy_cache_)}; }
  void restore_cache(Cache&& c) {
    x_cache_ = std::move(c.x);
    dy_cache_ = std::move(c.dy);
  }

  // W pass over externalized caches (the pipeline runtime's deferred-dW
  // stash): dW += xᵀ·dy without touching the live caches. x is the input
  // owner's stashed input.
  void backward_dw(const Matrix& x, const Matrix& dy,
                   const ExecContext& ctx = {});
  void backward_dw(const Cache& c, const ExecContext& ctx = {}) {
    backward_dw(c.x, c.dy, ctx);
  }

  std::vector<Param*> params() { return {&w_, &b_}; }
  const std::string& name() const { return name_; }

 private:
  // y = x·W + b into uninitialized storage.
  Matrix affine(const Matrix& x, const ExecContext& ctx) const;

  std::size_t d_in_, d_out_;
  std::string name_;
  Param w_;
  Param b_;  // [1 × d_out]
  Matrix x_cache_;
  Matrix dy_cache_;
  // read_input_of()'s owner, null for a layer that owns its input. Copies
  // and moves of the layer do not carry it (see read_input_of).
  struct InputOf {
    const Linear* layer = nullptr;
    InputOf() = default;
    InputOf(const InputOf&) noexcept {}
    InputOf& operator=(const InputOf&) noexcept {
      layer = nullptr;
      return *this;
    }
  };
  InputOf input_of_;
};

// For each layer of `layers`, the index of the layer whose cached input it
// reads: an earlier entry of `layers` when the layer reads that entry's
// input (Linear::read_input_of), its own index otherwise.
std::vector<std::size_t> input_owners(const std::vector<Linear*>& layers);

}  // namespace pf
