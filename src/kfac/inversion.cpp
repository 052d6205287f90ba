// Inversion work: damped Cholesky inverses of the Kronecker factors.
#include <cmath>

#include "src/common/exec_context.h"
#include "src/kfac/kfac_engine.h"
#include "src/linalg/cholesky.h"

namespace pf {

namespace {

// (block-diag_k(m) + damping·I)⁻¹: inverts the k diagonal blocks
// independently and zeroes all cross-block entries (Appendix A.2).
// `ctx` reaches the blocked Cholesky and the batched inverse (cholesky.h).
Matrix block_diag_inverse(const Matrix& m, double damping, std::size_t k,
                          const ExecContext& ctx) {
  const std::size_t n = m.rows();
  if (k <= 1 || k >= n) {
    if (k >= n && n > 0) {
      // Fully diagonal preconditioning.
      Matrix inv(n, n, 0.0);
      for (std::size_t i = 0; i < n; ++i)
        inv(i, i) = 1.0 / (m(i, i) + damping);
      return inv;
    }
    return spd_inverse(m, damping, ctx);
  }
  Matrix inv(n, n, 0.0);
  const std::size_t base = n / k;
  const std::size_t extra = n % k;
  std::size_t start = 0;
  for (std::size_t b = 0; b < k; ++b) {
    const std::size_t size = base + (b < extra ? 1 : 0);
    if (size == 0) continue;
    Matrix block(size, size);
    for (std::size_t i = 0; i < size; ++i)
      for (std::size_t j = 0; j < size; ++j)
        block(i, j) = m(start + i, start + j);
    const Matrix binv = spd_inverse(block, damping, ctx);
    for (std::size_t i = 0; i < size; ++i)
      for (std::size_t j = 0; j < size; ++j)
        inv(start + i, start + j) = binv(i, j);
    start += size;
  }
  return inv;
}

}  // namespace

namespace {

// trace(corrected_x(decay)) without materializing the corrected matrix:
// summing the diagonal scaled by the shared corrected_scale() reproduces
// trace() over the materialized copy bit for bit (same per-element
// multiply, same ascending-index sum).
double corrected_trace(const Matrix& ema, double decay, std::size_t n) {
  const double scale = corrected_scale(decay, n);
  double t = 0.0;
  for (std::size_t i = 0; i < ema.rows(); ++i) t += ema(i, i) * scale;
  return t;
}

}  // namespace

void KfacEngine::update_inverse_factor(std::size_t i, bool b_side) {
  PF_CHECK(i < states_.size());
  auto& st = states_[i];
  if (!st.has_curvature()) return;
  const double gamma = std::sqrt(opts_.damping);
  // Both sides recompute the π-correction (it couples the A and B
  // damping), but from the EMAs' diagonals only — materializing the full
  // corrected matrix is reserved for the side actually being inverted, so
  // splitting the factor pair into two bubble-sized work items costs no
  // extra O(n²) copies and stays bit-identical to the fused loop below.
  double damp_a = gamma, damp_b = gamma;
  if (opts_.pi_correction) {
    const double mean_tr_a =
        corrected_trace(st.a_ema, opts_.ema_decay, st.curvature_updates) /
        static_cast<double>(st.a_ema.rows());
    const double mean_tr_b =
        corrected_trace(st.b_ema, opts_.ema_decay, st.curvature_updates) /
        static_cast<double>(st.b_ema.rows());
    // Guard against degenerate traces early in training.
    const double pi = std::sqrt(std::max(mean_tr_a, 1e-12) /
                                std::max(mean_tr_b, 1e-12));
    damp_a = gamma * pi;
    damp_b = gamma / pi;
  }
  if (!b_side) {
    st.a_inv = block_diag_inverse(st.corrected_a(opts_.ema_decay), damp_a,
                                  opts_.block_diag_k, exec_);
  } else {
    st.b_inv = block_diag_inverse(st.corrected_b(opts_.ema_decay), damp_b,
                                  opts_.block_diag_k, exec_);
    // The B side completes the pair: only now may precondition() treat the
    // inverses as fresh.
    ++st.inverse_updates;
  }
}

void KfacEngine::update_inverses() {
  for_each_layer([&](std::size_t i) {
    update_inverse_factor(i, /*b_side=*/false);
    update_inverse_factor(i, /*b_side=*/true);
  });
}

}  // namespace pf
