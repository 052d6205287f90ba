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
// with Tikhonov damping γ = sqrt(kKfacDamping) split by the standard
// π-correction π = sqrt( (tr A/d_in) / (tr B/d_out) ) of Martens & Grosse.
// Both factors are EMAs with decay kKfacEmaDecay, read bias-corrected.
//
// Shared input: layers that read the same input have the same A factor.
// The engine reads the layers' own declaration (Linear::read_input_of,
// made by attention for wk and wv, which read wq's input) through
// input_owners(): only an input owner folds curvature-A statistics, and
// the layers that read its input take its A EMA when they commit — after
// it — and fold only their own B. Their A EMAs are the owner's bytes, which
// is what three chains over the same inputs would compute. Inverses stay
// per layer: π-damping reads each layer's own B trace.
//
// Threads: every method runs under the ExecContext it is called with, as
// the nn layers and the linalg kernels do. gemm_threads() row blocks reach
// each layer's GEMMs and Choleskys; the whole-model methods also chunk
// their layer loop into nn_threads() pieces (layers are independent). Both
// counts are bitwise neutral, and the default context is serial. The
// pipeline runtime calls the per-factor methods under each stage's
// context, so bubble K-FAC spends the stage's budget.
#pragma once

#include <vector>

#include "src/common/exec_context.h"
#include "src/kfac/factor_state.h"
#include "src/nn/linear.h"

namespace pf {

// EMA decay of the Kronecker factor estimates.
inline constexpr double kKfacEmaDecay = 0.95;
// Tikhonov damping; its square root is split between A and B by π.
inline constexpr double kKfacDamping = 1e-3;

class KfacEngine {
 public:
  // Throws pf::Error when `layers` is empty.
  explicit KfacEngine(std::vector<Linear*> layers);

  // Curvature work: folds each layer's cached (a_l, e_l) into the factor
  // EMAs through accumulate_curvature_{a,b} and commit_curvature_layer, as
  // one micro-batch — input owners in a first pass, the layers that take
  // their A factor in a second. Layers without caches (never ran backward)
  // are skipped. A non-finite factor throws as commit_curvature_layer does;
  // layers folded before it (or alongside it, with nn_threads > 1) keep
  // their update.
  void update_curvature(const ExecContext& ctx = {});

  // Inversion work: recomputes the damped inverses from the current EMAs.
  void update_inverses(const ExecContext& ctx = {});

  // Precondition work: replaces each layer's weight gradient with
  // B⁻¹-and-A⁻¹-preconditioned gradient. Layers whose inverses have never
  // been computed are left untouched (the paper's "stale inverse" rule
  // degenerates to identity preconditioning before the first inversion).
  void precondition(const ExecContext& ctx = {});

  // ---- Per-factor / per-micro decomposition -------------------------------
  // The granularity PipeFisher schedules into bubbles: every method below is
  // one BubbleTask-shaped work item. The serial KfacOptimizer and the
  // pipeline runtime both drive THESE methods (the whole-model ones above
  // are loops over them), which is what makes the two execution modes
  // bit-identical.
  //
  // Ordering contract: for one layer, accumulate_curvature_{a,b} must be
  // called once per micro-batch in ascending micro order (the two factor
  // sides are independent of each other); commit_curvature after the last
  // micro; the inversion pair after commit (A then B — the B side bumps the
  // inverse counter); precondition_layer after inversion and after the
  // step's gradients are final. Different layers are independent, except
  // that a layer reading another's input (input_owner(i) != i) gets no
  // curvature-A calls and commits after its input owner.

  // Folds one micro-batch's a_l = x ([N×d_in]) / e_l = dy ([N×d_out]) into
  // the layer's pending factor sums. The A side throws for a layer that
  // reads another's input.
  void accumulate_curvature_a(std::size_t i, const Matrix& x,
                              const ExecContext& ctx = {});
  void accumulate_curvature_b(std::size_t i, const Matrix& dy,
                              const ExecContext& ctx = {});
  // Averages the pending micro contributions into the factor EMAs (no-op
  // for a layer with nothing pending); a layer that reads another's input
  // copies its owner's freshly committed A EMA, and throws if the owner has
  // not committed this update. Throws pf::Error naming the layer, the
  // factor side and the curvature update, and leaves the layer's EMAs and
  // pending sums as they were, when a pending factor has a non-finite
  // diagonal entry (a NaN, infinite or overflowing x or dy).
  void commit_curvature_layer(std::size_t i);
  // Recomputes one damped factor inverse from the current EMA. Call with
  // b_side = false then true; the B side increments inverse_updates.
  void update_inverse_factor(std::size_t i, bool b_side,
                             const ExecContext& ctx = {});
  // Preconditions one layer's weight gradient (stale-inverse rule applies).
  void precondition_layer(std::size_t i, const ExecContext& ctx = {});

  std::size_t n_layers() const { return layers_.size(); }
  Linear* layer(std::size_t i) const;
  // The layer whose input layer i reads: i, or an earlier layer's index
  // (input_owners() of the engine's layers).
  std::size_t input_owner(std::size_t i) const;
  const KfacFactorState& state(std::size_t i) const;

 private:
  std::vector<Linear*> layers_;
  std::vector<std::size_t> input_owners_;
  std::vector<KfacFactorState> states_;
};

}  // namespace pf
