#include "src/nn/transformer_block.h"

namespace pf {

TransformerBlock::TransformerBlock(std::size_t d_model, std::size_t d_ff,
                                   std::size_t n_heads, Rng& rng,
                                   const std::string& name)
    : attn_(d_model, n_heads, rng, name + ".attn"),
      ln1_(d_model, name + ".ln1"),
      w1_(d_model, d_ff, rng, name + ".ffn.w1"),
      w2_(d_ff, d_model, rng, name + ".ffn.w2"),
      ln2_(d_model, name + ".ln2") {}

Matrix TransformerBlock::forward(Matrix x, std::size_t batch,
                                 std::size_t seq, bool training,
                                 const ExecContext& ctx) {
  // An inference forward caches nothing, so x and h stay here for the
  // residuals. Each temporary is freed as soon as it is dead, so the next
  // allocation of its size can take its storage back from the pool.
  Matrix a = training ? attn_.forward(std::move(x), batch, seq, true, ctx)
                      : attn_.forward(x, batch, seq, false, ctx);
  a += training ? attn_.cached_input() : x;  // residual
  Matrix h = ln1_.forward(a, training, ctx);
  a = Matrix();
  Matrix u = training ? w1_.forward(std::move(h), true, ctx)
                      : w1_.forward(h, false, ctx);
  Matrix g = gelu_.forward(u, training, ctx);
  u = Matrix();
  Matrix f = w2_.forward(std::move(g), training, ctx);
  f += training ? w1_.cached_input() : h;  // residual
  return ln2_.forward(f, training, ctx);
}

Matrix TransformerBlock::backward(Matrix dy, const ExecContext& ctx,
                                  bool dx_only) {
  const auto back = [&](Linear& l, Matrix&& g) {
    return dx_only ? l.backward_dx(std::move(g), ctx)
                   : l.backward(std::move(g), ctx);
  };
  Matrix df = ln2_.backward(dy, ctx);
  dy = Matrix();
  Matrix dgelu_out = back(w2_, std::move(df));
  Matrix dg = gelu_.backward(dgelu_out, ctx);
  dgelu_out = Matrix();
  Matrix dh = back(w1_, std::move(dg));
  // f = h + FFN(h): gradient flows both directly (df, as w2 cached it) and
  // through the FFN.
  dh += w2_.cached_output_grad();
  Matrix da = ln1_.backward(dh, ctx);
  dh = Matrix();
  // a = x + Attention(x); da as wo cached it.
  Matrix dx = attn_.backward(std::move(da), ctx, dx_only);
  dx += attn_.cached_output_grad();
  return dx;
}

TransformerBlock::Cache TransformerBlock::save_cache() {
  Cache c;
  c.attn = attn_.save_cache();
  c.ln1 = ln1_.save_cache();
  c.w1 = w1_.save_cache();
  c.gelu = gelu_.save_cache();
  c.w2 = w2_.save_cache();
  c.ln2 = ln2_.save_cache();
  return c;
}

void TransformerBlock::restore_cache(Cache&& c) {
  attn_.restore_cache(std::move(c.attn));
  ln1_.restore_cache(std::move(c.ln1));
  w1_.restore_cache(std::move(c.w1));
  gelu_.restore_cache(std::move(c.gelu));
  w2_.restore_cache(std::move(c.w2));
  ln2_.restore_cache(std::move(c.ln2));
}

std::vector<Param*> TransformerBlock::params() {
  std::vector<Param*> out = attn_.params();
  for (Param* p : ln1_.params()) out.push_back(p);
  for (Param* p : w1_.params()) out.push_back(p);
  for (Param* p : w2_.params()) out.push_back(p);
  for (Param* p : ln2_.params()) out.push_back(p);
  return out;
}

std::vector<Linear*> TransformerBlock::kfac_linears() {
  std::vector<Linear*> out = attn_.kfac_linears();
  out.push_back(&w1_);
  out.push_back(&w2_);
  return out;
}

}  // namespace pf
