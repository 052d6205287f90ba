// Curvature work: building the Kronecker factors from layer caches.
#include <cmath>

#include "src/common/check.h"
#include "src/kfac/kfac_engine.h"
#include "src/linalg/gemm.h"

namespace pf {

namespace {

// Any non-finite entry of X (or dY) lands on the diagonal of XᵀX (dYᵀdY),
// as does an overflowing product, so an O(d) scan of a pending factor's
// diagonal stops a bad curvature input before it reaches the EMA — and
// names the layer here rather than failing at the next inversion.
void check_finite_diagonal(const Matrix& f, const Linear& layer, char side,
                           std::size_t update) {
  for (std::size_t j = 0; j < f.rows(); ++j)
    PF_CHECK(std::isfinite(f(j, j)))
        << "K-FAC curvature update " << update << " of layer '"
        << layer.name() << "': factor " << side << " has diagonal entry "
        << f(j, j) << " at index " << j
        << " (from a NaN, infinite or overflowing entry of the layer's "
        << (side == 'A' ? "input x" : "output gradient dy") << ")";
}

}  // namespace

KfacEngine::KfacEngine(std::vector<Linear*> layers)
    : layers_(std::move(layers)), input_owners_(input_owners(layers_)) {
  PF_CHECK(!layers_.empty()) << "a K-FAC engine needs at least one layer";
  states_.resize(layers_.size());
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    states_[i].a_ema = Matrix(layers_[i]->d_in(), layers_[i]->d_in(), 0.0);
    states_[i].b_ema = Matrix(layers_[i]->d_out(), layers_[i]->d_out(), 0.0);
  }
}

const KfacFactorState& KfacEngine::state(std::size_t i) const {
  PF_CHECK(i < states_.size());
  return states_[i];
}

Linear* KfacEngine::layer(std::size_t i) const {
  PF_CHECK(i < layers_.size());
  return layers_[i];
}

std::size_t KfacEngine::input_owner(std::size_t i) const {
  PF_CHECK(i < input_owners_.size());
  return input_owners_[i];
}

void KfacEngine::accumulate_curvature_a(std::size_t i, const Matrix& x,
                                        const ExecContext& ctx) {
  PF_CHECK(i < states_.size());
  Linear* l = layers_[i];
  PF_CHECK(input_owners_[i] == i)
      << l->name() << " reads the input of "
      << layers_[input_owners_[i]]->name() << ", which folds its A factor";
  PF_CHECK(x.cols() == l->d_in());
  auto& st = states_[i];
  if (st.pending_a.empty()) st.pending_a = Matrix(l->d_in(), l->d_in(), 0.0);
  // Ascending-k accumulation straight into the pending sum: micro m's
  // contribution lands element-wise after micros 0..m-1's (the caller
  // orders the calls), so the pending factor is bit-identical however the
  // micros were executed.
  syrk_tn_acc(x, st.pending_a, 1.0, ctx);
  st.pending_rows += static_cast<double>(x.rows());
}

void KfacEngine::accumulate_curvature_b(std::size_t i, const Matrix& dy,
                                        const ExecContext& ctx) {
  PF_CHECK(i < states_.size());
  Linear* l = layers_[i];
  PF_CHECK(dy.cols() == l->d_out());
  auto& st = states_[i];
  if (st.pending_b.empty())
    st.pending_b = Matrix(l->d_out(), l->d_out(), 0.0);
  // dy holds the mean-loss gradient; ×N undoes one 1/N (see kfac_engine.h).
  syrk_tn_acc(dy, st.pending_b, static_cast<double>(dy.rows()), ctx);
  ++st.pending_micros;
}

void KfacEngine::commit_curvature_layer(std::size_t i) {
  PF_CHECK(i < states_.size());
  auto& st = states_[i];
  const std::size_t owner = input_owners_[i];
  if (owner != i) {
    // The A factor is the input owner's, committed first: its EMA is the
    // one this layer's would fold, from the same sums, bit for bit.
    if (st.pending_micros == 0) return;
    const auto& src = states_[owner];
    PF_CHECK(src.curvature_updates == st.curvature_updates + 1)
        << layers_[i]->name() << " commits its curvature before "
        << layers_[owner]->name() << ", whose A factor it takes";
    check_finite_diagonal(st.pending_b, *layers_[i], 'B',
                          st.curvature_updates + 1);
    st.a_ema = src.a_ema;
  } else {
    // Nothing accumulated (the layer never ran): nothing to fold.
    if (st.pending_micros == 0 && st.pending_a.empty()) return;
    PF_CHECK(st.pending_micros > 0 && !st.pending_a.empty() &&
             st.pending_rows > 0.0)
        << "commit with a partial A/B accumulation";
    check_finite_diagonal(st.pending_a, *layers_[i], 'A',
                          st.curvature_updates + 1);
    check_finite_diagonal(st.pending_b, *layers_[i], 'B',
                          st.curvature_updates + 1);
    // A = (Σ XᵀX) / (Σ N_m).
    Matrix a = std::move(st.pending_a);
    a *= 1.0 / st.pending_rows;
    st.a_ema.axpby(kKfacEmaDecay, a, 1.0 - kKfacEmaDecay);
    st.pending_a = Matrix();
    st.pending_rows = 0.0;
  }
  // B averages the per-micro N·dYᵀdY estimates.
  Matrix b = std::move(st.pending_b);
  b *= 1.0 / static_cast<double>(st.pending_micros);
  st.b_ema.axpby(kKfacEmaDecay, b, 1.0 - kKfacEmaDecay);
  ++st.curvature_updates;
  st.pending_b = Matrix();
  st.pending_micros = 0;
}

void KfacEngine::update_curvature(const ExecContext& ctx) {
  // Input owners commit in the first pass, so the layers that take their A
  // factor can commit in the second.
  for (const bool owners : {true, false})
    ctx.parallel_for(layers_.size(), [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        Linear* l = layers_[i];
        if ((input_owners_[i] == i) != owners || !l->has_kfac_caches())
          continue;
        if (owners) accumulate_curvature_a(i, l->cached_input(), ctx);
        accumulate_curvature_b(i, l->cached_output_grad(), ctx);
        commit_curvature_layer(i);
      }
    });
}

}  // namespace pf
