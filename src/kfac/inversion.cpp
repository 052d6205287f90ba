// Inversion work: damped Cholesky inverses of the Kronecker factors.
#include <algorithm>
#include <cmath>

#include "src/kfac/kfac_engine.h"
#include "src/linalg/cholesky.h"

namespace pf {

namespace {

// The trace of corrected_x(decay) without materializing the corrected
// matrix: summing the diagonal scaled by the shared corrected_scale()
// reproduces the materialized copy's trace bit for bit (same per-element
// multiply, same ascending-index sum).
double corrected_trace(const Matrix& ema, double decay, std::size_t n) {
  const double scale = corrected_scale(decay, n);
  double t = 0.0;
  for (std::size_t i = 0; i < ema.rows(); ++i) t += ema(i, i) * scale;
  return t;
}

}  // namespace

void KfacEngine::update_inverse_factor(std::size_t i, bool b_side,
                                       const ExecContext& ctx) {
  PF_CHECK(i < states_.size());
  auto& st = states_[i];
  if (!st.has_curvature()) return;
  // Both sides recompute the π-correction (it couples the A and B
  // damping), but from the EMAs' diagonals only — materializing the full
  // corrected matrix is reserved for the side actually being inverted, so
  // splitting the factor pair into two bubble-sized work items costs no
  // extra O(n²) copies.
  const double mean_tr_a =
      corrected_trace(st.a_ema, kKfacEmaDecay, st.curvature_updates) /
      static_cast<double>(st.a_ema.rows());
  const double mean_tr_b =
      corrected_trace(st.b_ema, kKfacEmaDecay, st.curvature_updates) /
      static_cast<double>(st.b_ema.rows());
  // Guard against degenerate traces early in training.
  const double pi =
      std::sqrt(std::max(mean_tr_a, 1e-12) / std::max(mean_tr_b, 1e-12));
  const double gamma = std::sqrt(kKfacDamping);
  if (!b_side) {
    st.a_inv = spd_inverse(st.corrected_a(kKfacEmaDecay), gamma * pi, ctx);
  } else {
    st.b_inv = spd_inverse(st.corrected_b(kKfacEmaDecay), gamma / pi, ctx);
    // The B side completes the pair: only now may precondition() treat the
    // inverses as fresh.
    ++st.inverse_updates;
  }
}

void KfacEngine::update_inverses(const ExecContext& ctx) {
  ctx.parallel_for(layers_.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      update_inverse_factor(i, /*b_side=*/false, ctx);
      update_inverse_factor(i, /*b_side=*/true, ctx);
    }
  });
}

}  // namespace pf
