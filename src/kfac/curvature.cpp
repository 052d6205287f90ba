// Curvature work: building the Kronecker factors from layer caches.
// Also home of the engine's layer-parallel dispatch helper.
#include <cmath>

#include "src/common/check.h"
#include "src/common/exec_context.h"
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

KfacEngine::KfacEngine(std::vector<Linear*> layers, const KfacOptions& opts,
                       ThreadPool* pool)
    : layers_(std::move(layers)), opts_(opts) {
  PF_CHECK(!layers_.empty());
  PF_CHECK(opts_.ema_decay > 0.0 && opts_.ema_decay < 1.0);
  PF_CHECK(opts_.damping > 0.0);
  PF_CHECK(opts_.gemm_threads >= 1)
      << "KfacOptions::gemm_threads must be >= 1, got " << opts_.gemm_threads;
  PF_CHECK(opts_.layer_threads >= 1)
      << "KfacOptions::layer_threads must be >= 1, got "
      << opts_.layer_threads;
  exec_ = ExecContext(/*nn_threads=*/1, opts_.gemm_threads, pool);
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

void KfacEngine::for_each_layer(
    const std::function<void(std::size_t)>& fn) {
  // Layers are independent: chunking them across the pool cannot change any
  // per-layer result, so every layer_threads value is bitwise equivalent.
  // The fan-out rides the same ExecContext machinery as the nn stack (layer
  // chunks play the nn_threads role).
  const ExecContext ctx(opts_.layer_threads, opts_.gemm_threads,
                        &exec_.pool());
  ctx.parallel_for(layers_.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) fn(i);
  });
}

void KfacEngine::accumulate_curvature_a(std::size_t i, const Matrix& x) {
  PF_CHECK(i < states_.size());
  Linear* l = layers_[i];
  PF_CHECK(x.cols() == l->d_in());
  auto& st = states_[i];
  if (st.pending_a.empty()) st.pending_a = Matrix(l->d_in(), l->d_in(), 0.0);
  // Ascending-k accumulation straight into the pending sum: micro m's
  // contribution lands element-wise after micros 0..m-1's (the caller
  // orders the calls), so the pending factor is bit-identical however the
  // micros were executed.
  syrk_tn_acc(x, st.pending_a, 1.0, exec_);
  st.pending_rows += static_cast<double>(x.rows());
}

void KfacEngine::accumulate_curvature_b(std::size_t i, const Matrix& dy) {
  PF_CHECK(i < states_.size());
  Linear* l = layers_[i];
  PF_CHECK(dy.cols() == l->d_out());
  auto& st = states_[i];
  if (st.pending_b.empty())
    st.pending_b = Matrix(l->d_out(), l->d_out(), 0.0);
  // dy holds the mean-loss gradient; ×N undoes one 1/N (see kfac_engine.h).
  syrk_tn_acc(dy, st.pending_b, static_cast<double>(dy.rows()), exec_);
  ++st.pending_micros;
}

void KfacEngine::commit_curvature_layer(std::size_t i) {
  PF_CHECK(i < states_.size());
  auto& st = states_[i];
  if (st.pending_micros == 0 && st.pending_a.empty()) {
    // Nothing accumulated (layer never ran) — mirror update_curvature's
    // skip rule.
    return;
  }
  PF_CHECK(st.pending_micros > 0 && !st.pending_a.empty() &&
           st.pending_rows > 0.0)
      << "commit with a partial A/B accumulation";
  check_finite_diagonal(st.pending_a, *layers_[i], 'A',
                        st.curvature_updates + 1);
  check_finite_diagonal(st.pending_b, *layers_[i], 'B',
                        st.curvature_updates + 1);
  // A = (Σ XᵀX) / (Σ N_m); B averages the per-micro N·dYᵀdY estimates.
  // Single-micro equivalence to update_curvature (alpha applied inside the
  // GEMM): exact while the reduction fits one k-panel (N ≤ 256 token rows)
  // or when 1/N is a power of two (scaling then commutes with the
  // per-panel rounding) — e.g. the 512-row micros of the example. Beyond
  // that the legacy path scales each 256-deep panel before summing and the
  // two differ in the last bits; per-micro mode is therefore opt-in.
  Matrix a = std::move(st.pending_a);
  a *= 1.0 / st.pending_rows;
  Matrix b = std::move(st.pending_b);
  b *= 1.0 / static_cast<double>(st.pending_micros);
  st.a_ema.axpby(opts_.ema_decay, a, 1.0 - opts_.ema_decay);
  st.b_ema.axpby(opts_.ema_decay, b, 1.0 - opts_.ema_decay);
  ++st.curvature_updates;
  st.pending_a = Matrix();
  st.pending_b = Matrix();
  st.pending_rows = 0.0;
  st.pending_micros = 0;
}

void KfacEngine::update_curvature() {
  for_each_layer([&](std::size_t i) {
    Linear* l = layers_[i];
    if (!l->has_kfac_caches()) return;
    const Matrix& x = l->cached_input();        // a_l  [N × d_in]
    const Matrix& dy = l->cached_output_grad();  // e_l  [N × d_out]
    const double n = static_cast<double>(x.rows());

    // A = XᵀX / N ; B = N·dYᵀdY (see kfac_engine.h for the scaling).
    Matrix a(l->d_in(), l->d_in(), 0.0);
    syrk_tn_acc(x, a, 1.0 / n, exec_);
    Matrix b(l->d_out(), l->d_out(), 0.0);
    syrk_tn_acc(dy, b, n, exec_);

    auto& st = states_[i];
    check_finite_diagonal(a, *l, 'A', st.curvature_updates + 1);
    check_finite_diagonal(b, *l, 'B', st.curvature_updates + 1);
    st.a_ema.axpby(opts_.ema_decay, a, 1.0 - opts_.ema_decay);
    st.b_ema.axpby(opts_.ema_decay, b, 1.0 - opts_.ema_decay);
    ++st.curvature_updates;
  });
}

}  // namespace pf
