#include "src/train/trainer.h"

#include "src/common/check.h"
#include "src/common/stats.h"

namespace pf {

double TrainTrace::final_loss_smoothed(std::size_t half_window) const {
  PF_CHECK(!loss.empty());
  const auto smoothed = smooth_moving_average(loss, half_window);
  return smoothed.back();
}

Trainer::Trainer(BertModel& model, const MlmBatcher& batcher,
                 std::unique_ptr<Optimizer> optimizer,
                 const TrainerConfig& cfg)
    : model_(model),
      batcher_(batcher),
      opt_(std::move(optimizer)),
      cfg_(cfg),
      data_rng_(cfg.data_seed) {
  PF_CHECK(opt_ != nullptr);
}

BertLossBreakdown Trainer::step() {
  PF_CHECK(cfg_.accumulation_steps >= 1);
  const auto params = model_.params();
  zero_grads(params);
  BertLossBreakdown total{};
  for (std::size_t a = 0; a < cfg_.accumulation_steps; ++a) {
    const auto batch = batcher_.next_batch(cfg_.batch_size, data_rng_);
    const auto losses = model_.train_step_backward(batch, cfg_.exec);
    total.total += losses.total;
    total.mlm += losses.mlm;
    total.nsp += losses.nsp;
    // Let curvature-hungry optimizers see every micro-batch's caches (the
    // K-FAC per-micro curvature mode; a no-op for everything else).
    opt_->on_micro_batch();
  }
  const double inv = 1.0 / static_cast<double>(cfg_.accumulation_steps);
  total.total *= inv;
  total.mlm *= inv;
  total.nsp *= inv;
  if (cfg_.accumulation_steps > 1)
    for (Param* p : params) p->g *= inv;
  opt_->step(params, cfg_.schedule.lr(t_));
  ++t_;
  return total;
}

TrainTrace Trainer::run() {
  TrainTrace trace;
  trace.loss.reserve(cfg_.total_steps);
  for (std::size_t i = 0; i < cfg_.total_steps; ++i) {
    const double lr = cfg_.schedule.lr(t_);  // before step() advances t_
    trace.add(lr, step());
  }
  return trace;
}

}  // namespace pf
