#include "src/hw/cost_model.h"

#include <cmath>

#include "src/comm/collectives.h"
#include "src/common/check.h"

namespace pf {

namespace {
constexpr double kFp32Bytes = 4.0;
}

double CostModel::flops_forward_block(const TransformerConfig& cfg,
                                      std::size_t b_micro) {
  const double d = static_cast<double>(cfg.d_model);
  const double ff = static_cast<double>(cfg.d_ff);
  const double S = static_cast<double>(cfg.seq_len);
  const double B = static_cast<double>(b_micro);
  const double tokens = B * S;
  // QKV + output projections: 4 GEMMs of d×d → 8·d² FLOPs per token.
  // FFN: d×ff and ff×d → 4·d·ff FLOPs per token.
  // Attention logits and attention·V: 2 × 2·S·d FLOPs per token.
  return tokens * (8.0 * d * d + 4.0 * d * ff + 4.0 * S * d);
}

double CostModel::flops_backward_block(const TransformerConfig& cfg,
                                       std::size_t b_micro) {
  return 2.0 * flops_forward_block(cfg, b_micro);
}

double CostModel::flops_curvature_factor(std::size_t dim,
                                         std::size_t tokens) {
  const double n = static_cast<double>(dim);
  // Symmetric rank-k update U·Uᵀ: n²·tokens MACs / 2 for symmetry,
  // 2 FLOPs per MAC → n²·tokens.
  return n * n * static_cast<double>(tokens);
}

double CostModel::flops_inversion_factor(std::size_t dim) {
  const double n = static_cast<double>(dim);
  // Cholesky n³/3 + triangular inverse + product ≈ 1.4·n³ FLOPs total.
  return 1.4 * n * n * n;
}

double CostModel::flops_precondition_linear(const LinearShape& l) {
  const double din = static_cast<double>(l.d_in);
  const double dout = static_cast<double>(l.d_out);
  // B⁻¹(dout×dout)·G(dout×din) and ·A⁻¹(din×din): 2(dout²·din + dout·din²).
  return 2.0 * (dout * dout * din + dout * din * din);
}

double CostModel::time_forward_stage(const StageShape& s) const {
  const double flops =
      static_cast<double>(s.blocks) * flops_forward_block(s.cfg, s.b_micro);
  // Elementwise traffic (LayerNorm, GELU, softmax, residual): roughly the
  // activation footprint streamed twice.
  const double bytes = static_cast<double>(s.blocks) *
                       static_cast<double>(s.tokens()) *
                       s.cfg.activation_floats_per_token() * kFp32Bytes * 2.0;
  return flops / (hw_.peak_flops * hw_.eff_gemm) +
         bytes / (hw_.mem_bandwidth * hw_.eff_elementwise) +
         hw_.kernel_overhead * static_cast<double>(s.blocks);
}

double CostModel::time_backward_stage(const StageShape& s) const {
  const double flops =
      static_cast<double>(s.blocks) * flops_backward_block(s.cfg, s.b_micro);
  const double bytes = static_cast<double>(s.blocks) *
                       static_cast<double>(s.tokens()) *
                       s.cfg.activation_floats_per_token() * kFp32Bytes * 3.0;
  return flops / (hw_.peak_flops * hw_.eff_gemm) +
         bytes / (hw_.mem_bandwidth * hw_.eff_elementwise) +
         hw_.kernel_overhead * static_cast<double>(s.blocks);
}

double CostModel::time_backward_stage_recompute(const StageShape& s) const {
  return time_backward_stage(s) + time_forward_stage(s);
}

double CostModel::time_curvature_factor(std::size_t dim,
                                        std::size_t tokens) const {
  return flops_curvature_factor(dim, tokens) /
             (hw_.peak_flops * hw_.eff_curvature) +
         hw_.kernel_overhead;
}

double CostModel::time_curvature_block(const StageShape& s) const {
  double t = 0.0;
  for (const auto& l : s.cfg.kfac_linears_per_block()) {
    t += time_curvature_factor(l.d_in, s.tokens());
    t += time_curvature_factor(l.d_out, s.tokens());
  }
  return t;
}

double CostModel::time_inversion_factor(std::size_t dim) const {
  return flops_inversion_factor(dim) / (hw_.peak_flops * hw_.eff_inversion) +
         hw_.kernel_overhead;
}

double CostModel::time_eigendecomposition_factor(std::size_t dim) const {
  // Symmetric eigensolvers cost ~9n³ FLOPs (tridiagonalization + QR
  // iteration + backtransform) vs ~1.4n³ for Cholesky+inverse, and run at
  // similar (low) efficiency on accelerators.
  const double n = static_cast<double>(dim);
  return 9.0 * n * n * n / (hw_.peak_flops * hw_.eff_inversion) +
         hw_.kernel_overhead;
}

double CostModel::time_inversion_block(const TransformerConfig& cfg) const {
  double t = 0.0;
  for (const auto& l : cfg.kfac_linears_per_block()) {
    t += time_inversion_factor(l.d_in);
    t += time_inversion_factor(l.d_out);
  }
  return t;
}

double CostModel::time_precondition_stage(const TransformerConfig& cfg,
                                          std::size_t blocks) const {
  double flops = 0.0;
  for (const auto& l : cfg.kfac_linears_per_block())
    flops += flops_precondition_linear(l);
  flops *= static_cast<double>(blocks);
  return flops / (hw_.peak_flops * hw_.eff_precondition) +
         hw_.kernel_overhead * static_cast<double>(blocks);
}

double CostModel::time_optimizer_update_stage(const TransformerConfig& cfg,
                                              std::size_t blocks) const {
  const double params = static_cast<double>(cfg.params_per_block()) *
                        static_cast<double>(blocks);
  // LAMB reads param, grad, m, v and writes m, v, param: ~7 streams.
  const double bytes = params * kFp32Bytes * 7.0;
  return bytes / (hw_.mem_bandwidth * hw_.eff_elementwise) +
         hw_.kernel_overhead;
}

double CostModel::time_p2p_activation(const StageShape& s) const {
  const double bytes = static_cast<double>(s.tokens()) *
                       static_cast<double>(s.cfg.d_model) * kFp32Bytes;
  return p2p_time({hw_.link_bandwidth, hw_.link_latency}, bytes);
}

double CostModel::time_allreduce(double bytes, std::size_t world) const {
  PF_CHECK(world >= 1);
  // NCCL-style algorithm choice: ring for bandwidth-bound sizes, recursive
  // doubling for latency-bound ones (src/comm/collectives.h).
  return allreduce_best_time({hw_.link_bandwidth, hw_.link_latency}, bytes,
                             world);
}

double CostModel::time_sync_grad_stage(const TransformerConfig& cfg,
                                       std::size_t blocks,
                                       std::size_t world) const {
  return time_allreduce(stage_gradient_bytes(cfg, blocks), world);
}

double stage_gradient_bytes(const TransformerConfig& cfg,
                            std::size_t blocks) {
  return static_cast<double>(cfg.params_per_block()) *
         static_cast<double>(blocks) * kFp32Bytes;
}

}  // namespace pf
