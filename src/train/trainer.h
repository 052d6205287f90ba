// Pretraining loop: model + batcher + optimizer + LR schedule, with a loss
// trace for the convergence analysis of Figure 7.
#pragma once

#include <memory>

#include "src/common/exec_context.h"
#include "src/data/mlm_batcher.h"
#include "src/optim/lr_schedule.h"
#include "src/optim/optimizer.h"

namespace pf {

struct TrainerConfig {
  std::size_t batch_size = 16;
  std::size_t total_steps = 300;
  PolyWarmupSchedule schedule{1e-3, 30, 300};
  std::uint64_t data_seed = 99;
  // Gradient accumulation: each optimizer step averages the gradients of
  // this many micro-batches (paper Appendix B.2 simulates an 8K batch on 32
  // GPUs by accumulating over 8 sub-steps).
  std::size_t accumulation_steps = 1;
  // Execution context every forward/backward of the run threads through
  // (built from PF_NN_THREADS / PF_GEMM_THREADS in the training binaries).
  // The default is serial; any value is bitwise identical to it.
  ExecContext exec;
};

struct TrainTrace {
  std::vector<double> loss;      // per step (MLM + NSP)
  std::vector<double> mlm_loss;
  std::vector<double> nsp_loss;
  std::vector<double> lr;
  // Appends one step's LR and losses.
  void add(double step_lr, const BertLossBreakdown& l) {
    lr.push_back(step_lr);
    loss.push_back(l.total);
    mlm_loss.push_back(l.mlm);
    nsp_loss.push_back(l.nsp);
  }
  double final_loss_smoothed(std::size_t half_window = 10) const;
};

class Trainer {
 public:
  Trainer(BertModel& model, const MlmBatcher& batcher,
          std::unique_ptr<Optimizer> optimizer, const TrainerConfig& cfg);

  // Runs cfg.total_steps steps and returns the trace.
  TrainTrace run();

  // Runs a single step (exposed for tests).
  BertLossBreakdown step();

 private:
  BertModel& model_;
  const MlmBatcher& batcher_;
  std::unique_ptr<Optimizer> opt_;
  TrainerConfig cfg_;
  Rng data_rng_;
  std::size_t t_ = 0;
};

}  // namespace pf
