// Per-layer Kronecker factor state for K-FAC.
//
// Holds the EMA estimates of A_l = ⟨a_l a_lᵀ⟩ and B_l = ⟨e_l e_lᵀ⟩ and their
// damped inverses. The engine (curvature.cpp / inversion.cpp /
// precondition.cpp) performs exactly the three kinds of work PipeFisher
// schedules into bubbles.
#pragma once

#include "src/linalg/matrix.h"

namespace pf {

struct KfacFactorState {
  Matrix a_ema;  // [d_in × d_in]
  Matrix b_ema;  // [d_out × d_out]
  Matrix a_inv;
  Matrix b_inv;
  std::size_t curvature_updates = 0;
  std::size_t inverse_updates = 0;

  // Per-micro-batch curvature accumulation (PipeFisher's curvature work is
  // one task per factor per micro-batch): pending_a sums Xᵀ·X over the
  // micros of one step, pending_b sums N_m·dYᵀ·dY; commit averages them
  // into the EMA. Contributions MUST be folded in ascending micro order —
  // the engine's caller pins this (serially in KfacOptimizer's micro hook,
  // via dependency chains in the pipeline runtime) so both paths produce
  // bit-identical factors.
  Matrix pending_a;
  Matrix pending_b;
  double pending_rows = 0.0;    // Σ_m N_m (token rows seen by A)
  std::size_t pending_micros = 0;  // micro count folded into pending_b

  bool has_curvature() const { return curvature_updates > 0; }
  bool has_inverse() const { return inverse_updates > 0; }

  // Bias-corrected EMA values (Adam-style correction for the warm-up).
  Matrix corrected_a(double decay) const;
  Matrix corrected_b(double decay) const;
};

// The elementwise scale of the bias correction, 1 / (1 − decay^n) — the
// single definition shared by corrected_a/corrected_b and by consumers
// that only need a corrected trace (inversion's π-damping) and must match
// the materialized matrices bit for bit. Requires n > 0.
double corrected_scale(double decay, std::size_t n);

}  // namespace pf
