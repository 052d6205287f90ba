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

Matrix TransformerBlock::forward(const Matrix& x, std::size_t batch,
                                 std::size_t seq, bool training,
                                 const ExecContext& ctx) {
  Matrix a = attn_.forward(x, batch, seq, training, ctx);
  a += x;  // residual
  const Matrix h = ln1_.forward(a, training, ctx);
  Matrix f = w2_.forward(
      gelu_.forward(w1_.forward(h, training, ctx), training, ctx), training,
      ctx);
  f += h;  // residual
  return ln2_.forward(f, training, ctx);
}

Matrix TransformerBlock::backward(const Matrix& dy, const ExecContext& ctx,
                                  bool dx_only) {
  const Matrix df = ln2_.backward(dy, ctx);
  // f = h + FFN(h): gradient flows both directly and through the FFN.
  const Matrix dg =
      gelu_.backward(dx_only ? w2_.backward_dx(df, ctx) : w2_.backward(df, ctx),
                     ctx);
  Matrix dh = dx_only ? w1_.backward_dx(dg, ctx) : w1_.backward(dg, ctx);
  dh += df;
  const Matrix da = ln1_.backward(dh, ctx);
  // a = x + Attention(x).
  Matrix dx = attn_.backward(da, ctx, dx_only);
  dx += da;
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
