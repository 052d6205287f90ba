// Analytic cost model: FLOP / byte counts for every kind of work in a
// pipeline step (forward, backward, K-FAC curvature / inversion /
// precondition, optimizer update, collectives), mapped to seconds on a
// HardwareProfile.
//
// This is the stand-in for the paper's Nsight microbenchmarks. The paper's
// performance model (§3.3) takes measured T_f, T_b, T_curv, T_inv, T_prec
// per stage; we produce the same quantities analytically.
#pragma once

#include "src/hw/hardware_profile.h"
#include "src/hw/transformer_config.h"

namespace pf {

// A "stage workload": `blocks` consecutive transformer blocks processed with
// micro-batches of `b_micro` sequences of length cfg.seq_len.
struct StageShape {
  TransformerConfig cfg;
  std::size_t blocks;    // layers per pipeline stage
  std::size_t b_micro;   // micro-batch size (sequences)

  std::size_t tokens() const { return b_micro * cfg.seq_len; }
};

class CostModel {
 public:
  explicit CostModel(HardwareProfile hw) : hw_(std::move(hw)) {}

  const HardwareProfile& hardware() const { return hw_; }

  // ---- FLOP counts (hardware independent) ----

  // Forward FLOPs of one transformer block for one micro-batch.
  static double flops_forward_block(const TransformerConfig& cfg,
                                    std::size_t b_micro);
  // Backward ≈ 2× forward (dX and dW GEMMs).
  static double flops_backward_block(const TransformerConfig& cfg,
                                     std::size_t b_micro);
  // Curvature FLOPs for ONE Kronecker factor (A uses d_in, B uses d_out):
  // a rank-N_tok symmetric update, SYRK-style (half of the full GEMM).
  static double flops_curvature_factor(std::size_t dim, std::size_t tokens);
  // Inversion FLOPs for one factor of size dim: Cholesky (n³/3) plus
  // triangular inversion (2n³/3) — ~n³ MACs = 2n³ FLOPs... we use 1.4·n³.
  static double flops_inversion_factor(std::size_t dim);
  // Precondition FLOPs for one linear: two GEMMs B⁻¹·G and (B⁻¹G)·A⁻¹.
  static double flops_precondition_linear(const LinearShape& l);

  // ---- Times (seconds) on this hardware ----

  double time_forward_stage(const StageShape& s) const;
  double time_backward_stage(const StageShape& s) const;
  // Backward including activation recomputation (R): one extra forward.
  double time_backward_stage_recompute(const StageShape& s) const;

  // Curvature work for one factor of one linear, one micro-batch.
  double time_curvature_factor(std::size_t dim, std::size_t tokens) const;
  // Total curvature work of one block for one micro-batch (all 12 factors).
  double time_curvature_block(const StageShape& s) const;
  // Inversion of one factor.
  double time_inversion_factor(std::size_t dim) const;
  // Eigendecomposition of one factor (Shampoo's inverse-4th-root work,
  // paper §5): iterative and markedly more expensive than Cholesky.
  double time_eigendecomposition_factor(std::size_t dim) const;
  // Total inversion work of one block (all 12 factors).
  double time_inversion_block(const TransformerConfig& cfg) const;
  // Preconditioning all linears of a stage (runs every step).
  double time_precondition_stage(const TransformerConfig& cfg,
                                 std::size_t blocks) const;
  // First-order optimizer update for one stage's parameters (elementwise,
  // memory bound; LAMB/Adam touch ~6 arrays of the parameter size).
  double time_optimizer_update_stage(const TransformerConfig& cfg,
                                     std::size_t blocks) const;

  // Point-to-point transfer of one micro-batch of boundary activations.
  double time_p2p_activation(const StageShape& s) const;

  // Ring allreduce of `bytes` across `world` devices.
  double time_allreduce(double bytes, std::size_t world) const;

  // Gradient sync for one stage across `world` data-parallel replicas.
  double time_sync_grad_stage(const TransformerConfig& cfg,
                              std::size_t blocks, std::size_t world) const;

 private:
  HardwareProfile hw_;
};

// Bytes of the gradients (=parameters) of a stage, fp32.
double stage_gradient_bytes(const TransformerConfig& cfg, std::size_t blocks);

}  // namespace pf
