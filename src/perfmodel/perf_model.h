// Closed-form performance model (paper §3.3, Figures 5, 6, 9-16).
//
//   T_pipe   = C_f·T_f + C_b·T_b
//   T_bubble = T_pipe − N_micro·w·(T_f + T_b)
//   T⁺_kfac  = N_micro·T_curv + T_inv (fit into bubbles) + T_prec
//
// C_f/C_b and the per-micro useful-work multiplier w come from the
// schedule's registered traits (src/pipeline/schedule_registry.h), e.g.
// (Table 1, and the bubble-invariance of Chimera for N = k·D):
//   GPipe / 1F1B (flush):   C_f = C_b = N + D − 1,      w = 1
//   Chimera (2 pipelines):  C_f = N, C_b = N + D − 2,   w = 1
//   interleaved-1F1B (V):   C_f = C_b = V·N + D − 1,    w = V
//     (the ideal static-order path; the greedy simulator realizes 0-25%
//      above it for N >= D — see tests/test_schedule_registry.cpp)
//
// Under activation recomputation (R) the backward time includes one extra
// forward. Memory comes from src/hw/memory_model.h.
#pragma once

#include <string>

#include "src/hw/cost_model.h"
#include "src/hw/memory_model.h"

namespace pf {

struct PerfModelInput {
  TransformerConfig cfg;
  HardwareProfile hw;
  std::string schedule = "chimera";  // any name in list_schedules()
  std::size_t depth = 4;         // D (= number of devices, 1 block/stage in
                                 // the paper's Figure 5 setting)
  std::size_t blocks_per_stage = 1;  // per (virtual) stage
  std::size_t n_micro = 4;       // N
  std::size_t b_micro = 8;       // B
  // Chunks per device for virtual-pipeline schedules (others ignore it).
  std::size_t virtual_chunks = 2;
  bool recompute = false;        // R
  // Appendix A.2: k-block-diagonal factor approximation. Curvature work for
  // a factor of dim d shrinks to k·(d/k)² per token and inversion to
  // k·(d/k)³ — enabling very wide layers.
  std::size_t block_diag_k = 1;
};

struct PerfModelResult {
  // Per-stage work times (seconds).
  double t_forward = 0.0;
  double t_backward = 0.0;   // includes recompute when R
  // B/W halves of t_backward for split_backward schedules (ZB-H1): the
  // critical-path dx pass and the deferrable dW pass. Filled with the
  // simulator's 50/50 modeling split; zero for fused-backward schedules.
  double t_backward_b = 0.0;
  double t_backward_w = 0.0;
  double t_curvature = 0.0;  // one micro-batch, all factors of the stage
  double t_inversion = 0.0;  // all factors of the stage
  double t_precondition = 0.0;

  // Step-level times.
  double t_pipe = 0.0;
  double t_bubble = 0.0;

  // (N·T_curv + T_inv) / T_bubble — how many steps of bubbles are needed to
  // refresh the curvature information (paper's key ratio).
  double curv_inv_bubble_ratio = 0.0;
  // ceil of the ratio, at least 1: the refresh interval in steps.
  int refresh_steps = 1;

  // Throughput in sequences/s for the four schemes of Figure 5(b).
  double throughput_pipeline = 0.0;    // vanilla pipeline (no K-FAC)
  double throughput_pipefisher = 0.0;  // K-FAC + bubble filling
  double throughput_kfac_skip = 0.0;   // naive K-FAC, skipping to match freq
  double throughput_kfac_naive = 0.0;  // naive K-FAC every step

  // Speedup of PipeFisher over K-FAC+skip (Figure 6 bottom row).
  double speedup_vs_kfac_skip = 0.0;

  // Memory (bytes), paper Figure 5(a) bottom.
  MemoryBreakdown memory;
};

PerfModelResult run_perf_model(const PerfModelInput& in);

}  // namespace pf
