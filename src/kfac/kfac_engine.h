// K-FAC engine over a set of Linear layers: curvature, inversion and
// preconditioning — the numeric counterparts of the three work kinds
// PipeFisher assigns to pipeline bubbles.
//
// Conventions (weight stored [d_in × d_out], y = x·W + b, N = rows):
//   A_l = Xᵀ·X / N                        (activation second moment)
//   B_l = N · dYᵀ·dY                      (error second moment; dY holds the
//                                          mean-loss gradient, so ×N undoes
//                                          one 1/N to estimate the empirical
//                                          Fisher of per-example errors)
//   dŴ  = (A_l + π γ I)⁻¹ · dW · (B_l + γ/π I)⁻¹
// with Tikhonov damping γ = sqrt(damping) split by the standard π-correction
// π = sqrt( (tr A/d_in) / (tr B/d_out) ) of Martens & Grosse.
#pragma once

#include <functional>
#include <vector>

#include "src/kfac/factor_state.h"
#include "src/nn/linear.h"

namespace pf {
class ThreadPool;
}  // namespace pf

namespace pf {

struct KfacOptions {
  double ema_decay = 0.95;
  double damping = 1e-3;
  bool pi_correction = true;
  // Appendix A.2: approximate each factor by a k-block diagonal matrix so
  // very wide layers (d_ff ~ 16384) stay invertible in bubble-sized chunks.
  // k = 1 is exact K-FAC; k = dim degenerates to diagonal preconditioning.
  std::size_t block_diag_k = 1;
  // Row-block threads for the GEMM-dominated curvature and precondition
  // work and the Cholesky-bound inversion. 1 = serial; results are bitwise
  // identical for any value >= 1 (see gemm.h).
  int gemm_threads = 1;
  // Layer-level parallelism: each layer's curvature, inversion and
  // precondition work is independent of every other layer's, so the
  // per-layer loops dispatch across the engine's pool (via an ExecContext
  // built in for_each_layer) in chunks of layers. 1 = serial; results are
  // bitwise identical for any value >= 1. Composes with gemm_threads: a
  // layer task may itself fan row blocks onto the pool (parallel_for is
  // chunk-claiming: a caller runs its own loop's unclaimed chunks, so
  // nesting cannot deadlock), but the two knobs compete for the same cores
  // — prefer layer_threads for many small layers, gemm_threads for few
  // wide ones.
  int layer_threads = 1;
};

class KfacEngine {
 public:
  // `pool`: the ThreadPool every GEMM row block, Cholesky panel and layer
  // fan-out of this engine dispatches on; nullptr = the process-global
  // pool (the serial KfacOptimizer's behaviour). The pipeline runtime
  // passes its own pool so bubble-filled K-FAC work never escapes the
  // `workers` budget. Bitwise neutral — pools change where blocks run,
  // never how results fold (see exec_context.h). Throws pf::Error naming
  // the field when gemm_threads or layer_threads is below 1.
  KfacEngine(std::vector<Linear*> layers, const KfacOptions& opts,
             ThreadPool* pool = nullptr);

  // Curvature work: folds each layer's cached (a_l, e_l) into the factor
  // EMAs. Layers without caches (never ran backward) are skipped. Throws
  // pf::Error naming the layer, as commit_curvature_layer does, when a
  // factor has a non-finite diagonal entry; that layer's EMAs stay as they
  // were, but layers folded before it (or alongside it, with
  // layer_threads > 1) keep their update.
  void update_curvature();

  // Inversion work: recomputes the damped inverses from the current EMAs.
  void update_inverses();

  // Precondition work: replaces each layer's weight gradient with
  // B⁻¹-and-A⁻¹-preconditioned gradient. Layers whose inverses have never
  // been computed are left untouched (the paper's "stale inverse" rule
  // degenerates to identity preconditioning before the first inversion).
  void precondition();

  // ---- Per-factor / per-micro decomposition -------------------------------
  // The granularity PipeFisher schedules into bubbles: every method below is
  // one BubbleTask-shaped work item. The serial KfacOptimizer (with
  // per_micro_curvature) and the pipeline runtime both drive THESE methods,
  // which is what makes the two execution modes bit-identical.
  //
  // Ordering contract: for one layer, accumulate_curvature_{a,b} must be
  // called once per micro-batch in ascending micro order (the two factor
  // sides are independent of each other); commit_curvature after the last
  // micro; the inversion pair after commit (A then B — the B side bumps the
  // inverse counter); precondition_layer after inversion and after the
  // step's gradients are final. Different layers are fully independent.

  // Folds one micro-batch's a_l = x ([N×d_in]) / e_l = dy ([N×d_out]) into
  // the layer's pending factor sums.
  void accumulate_curvature_a(std::size_t i, const Matrix& x);
  void accumulate_curvature_b(std::size_t i, const Matrix& dy);
  // Averages the pending micro contributions into the factor EMAs (no-op
  // for a layer with nothing pending). Throws pf::Error naming the layer,
  // the factor side and the curvature update, and leaves the layer's EMAs
  // and pending sums as they were, when a pending factor has a non-finite
  // diagonal entry (a NaN, infinite or overflowing x or dy).
  void commit_curvature_layer(std::size_t i);
  // Recomputes one damped factor inverse from the current EMA. Call with
  // b_side = false then true; the B side increments inverse_updates.
  void update_inverse_factor(std::size_t i, bool b_side);
  // Preconditions one layer's weight gradient (stale-inverse rule applies).
  void precondition_layer(std::size_t i);

  std::size_t n_layers() const { return layers_.size(); }
  Linear* layer(std::size_t i) const;
  const KfacFactorState& state(std::size_t i) const;
  const KfacOptions& options() const { return opts_; }

 private:
  // Runs fn(i) for every layer index, serially or chunked across the
  // engine's pool according to opts_.layer_threads (see curvature.cpp).
  void for_each_layer(const std::function<void(std::size_t)>& fn);

  std::vector<Linear*> layers_;
  std::vector<KfacFactorState> states_;
  KfacOptions opts_;
  // Threads the engine's GEMMs/Choleskys: gemm_threads row blocks on the
  // injected pool.
  ExecContext exec_;
};

}  // namespace pf
