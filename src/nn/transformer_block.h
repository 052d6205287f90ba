// One BERT encoder block (post-LN):
//   h   = LN1(x + Attention(x))
//   out = LN2(h + W2·GELU(W1·h))
// Exposes the six K-FAC-tracked linears (Wq, Wk, Wv, Wo, W1, W2) — the
// factor shapes assumed by the cost model in src/hw. Wq, Wk and Wv share
// one input and so one A factor (attention.h); the cost model in src/hw
// still counts three, as the paper does.
//
// Every activation is written once. A training forward hands x, the
// attention context, h and the GELU output to the linears that cache them
// (wq, wo, w1, w2 — wk and wv read wq's x) instead of copying them, and the
// residuals read x and h back from those caches; backward hands dq, dk,
// dv, da, the GELU gradient and df over the same way. A temporary is freed
// (back to Matrix's storage pool) as soon as it is dead, before the next
// activation of the block is allocated.
#pragma once

#include "src/nn/activations.h"
#include "src/nn/attention.h"
#include "src/nn/layer_norm.h"

namespace pf {

class TransformerBlock {
 public:
  TransformerBlock(std::size_t d_model, std::size_t d_ff, std::size_t n_heads,
                   Rng& rng, const std::string& name);

  // Pass an rvalue x to hand it over (a training forward caches it in wq).
  Matrix forward(Matrix x, std::size_t batch, std::size_t seq,
                 bool training = true, const ExecContext& ctx = {});
  // `dx_only` defers the six tracked linears' dW GEMMs (zero-bubble B pass;
  // LayerNorm/GELU grads are cheap and stay on the critical path).
  Matrix backward(Matrix dy, const ExecContext& ctx = {},
                  bool dx_only = false);

  std::vector<Param*> params();
  std::vector<Linear*> kfac_linears();

  // Cache externalization for pipeline stages (see linear.h): the block's
  // full backward state for one micro-batch.
  struct Cache {
    MultiHeadSelfAttention::Cache attn;
    LayerNorm::Cache ln1, ln2;
    Linear::Cache w1, w2;
    Gelu::Cache gelu;
  };
  Cache save_cache();
  void restore_cache(Cache&& c);

 private:
  MultiHeadSelfAttention attn_;
  LayerNorm ln1_;
  Linear w1_;
  Gelu gelu_;
  Linear w2_;
  LayerNorm ln2_;
};

}  // namespace pf
