#include "src/optim/kfac_optimizer.h"

#include "src/common/check.h"

namespace pf {

KfacOptimizer::KfacOptimizer(std::vector<Linear*> kfac_layers,
                             std::unique_ptr<Optimizer> base,
                             const KfacOptimizerOptions& opts,
                             const ExecContext& ctx)
    : engine_(std::move(kfac_layers)),
      base_(std::move(base)),
      opts_(opts),
      ctx_(ctx) {
  PF_CHECK(base_ != nullptr);
  PF_CHECK(opts_.curvature_interval >= 1);
  PF_CHECK(opts_.inverse_interval >= 1);
}

void KfacOptimizer::on_micro_batch() {
  if (!opts_.per_micro_curvature) return;
  if (t_ % opts_.curvature_interval != 0) return;  // not a refresh step
  // Fold this micro-batch's caches into the pending factor sums. The
  // Trainer calls this once per micro in ascending order, giving the same
  // fold order the pipeline runtime pins with dependency chains. Only input
  // owners fold A (see kfac_engine.h).
  for (std::size_t i = 0; i < engine_.n_layers(); ++i) {
    Linear* l = engine_.layer(i);
    if (!l->has_kfac_caches()) continue;
    if (engine_.input_owner(i) == i)
      engine_.accumulate_curvature_a(i, l->cached_input(), ctx_);
    engine_.accumulate_curvature_b(i, l->cached_output_grad(), ctx_);
  }
}

void KfacOptimizer::step(const std::vector<Param*>& params, double lr) {
  if (t_ % opts_.curvature_interval == 0) {
    if (opts_.per_micro_curvature) {
      // A driver that forgot the on_micro_batch hook would otherwise
      // degrade silently to the bare base optimizer: if any layer has
      // caches (a backward ran) there must be pending contributions.
      bool caches = false, pending = false;
      for (std::size_t i = 0; i < engine_.n_layers(); ++i) {
        caches = caches || engine_.layer(i)->has_kfac_caches();
        pending = pending || engine_.state(i).pending_micros > 0;
      }
      PF_CHECK(!caches || pending)
          << "per_micro_curvature is set but no per-micro contributions "
             "were accumulated this step — the driver must call "
             "on_micro_batch() after every micro-batch backward (Trainer "
             "does)";
      // Ascending layers: every input owner commits before the layers
      // that take its A factor.
      for (std::size_t i = 0; i < engine_.n_layers(); ++i)
        engine_.commit_curvature_layer(i);
    } else {
      engine_.update_curvature(ctx_);
    }
  }
  if (t_ % opts_.inverse_interval == 0) engine_.update_inverses(ctx_);
  engine_.precondition(ctx_);
  base_->step(params, lr);
  ++t_;
}

}  // namespace pf
