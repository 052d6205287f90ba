// Precondition work: dŴ = A⁻¹ · dW · B⁻¹ (weight layout [d_in × d_out]).
#include "src/kfac/kfac_engine.h"
#include "src/linalg/gemm.h"

namespace pf {

void KfacEngine::precondition_layer(std::size_t i, const ExecContext& ctx) {
  PF_CHECK(i < states_.size());
  auto& st = states_[i];
  if (!st.has_inverse()) return;  // stale-inverse rule: identity
  Linear* l = layers_[i];
  l->weight().g = matmul(matmul(st.a_inv, l->weight().g, ctx), st.b_inv, ctx);
}

void KfacEngine::precondition(const ExecContext& ctx) {
  ctx.parallel_for(layers_.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) precondition_layer(i, ctx);
  });
}

}  // namespace pf
