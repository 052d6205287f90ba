// K-FAC optimizer wrapper (KAISA-style): preconditions the gradients of the
// tracked linears with the Kronecker-factored Fisher inverse, then hands ALL
// gradients to a base first-order optimizer (LAMB here, as in the paper:
// "we apply K-FAC to all fully-connected layers except the classification
// head and use NVLAMB for the rest").
//
// Curvature and inversion run at configurable intervals; PipeFisher's whole
// point is that on a pipeline these refreshes are free (hidden in bubbles)
// and can therefore be frequent (every 2-10 steps instead of every 100).
//
// Every engine call runs under the ExecContext given at construction (the
// serial default, or the trainer's own context); the engine's numeric
// settings are the constants in kfac_engine.h.
#pragma once

#include <memory>

#include "src/kfac/kfac_engine.h"
#include "src/optim/optimizer.h"

namespace pf {

struct KfacOptimizerOptions {
  std::size_t curvature_interval = 1;  // steps between curvature updates
  std::size_t inverse_interval = 1;    // steps between inversions
  // Estimate curvature from EVERY micro-batch of an accumulation step
  // (folded per micro in ascending order via the Trainer's on_micro_batch
  // hook) instead of only the last micro's caches. This is the paper's
  // semantics — PipeFisher's curvature work is per micro-batch — and the
  // serial reference the pipeline runtime is bit-compared against. With
  // accumulation_steps = 1 the two modes run the same engine calls and
  // agree bit for bit. Default off: the last-micro estimate stays the
  // behaviour of existing runs.
  bool per_micro_curvature = false;
};

class KfacOptimizer : public Optimizer {
 public:
  // `ctx` is the thread budget of every engine call (see kfac_engine.h); a
  // pool it names must outlive the optimizer.
  KfacOptimizer(std::vector<Linear*> kfac_layers,
                std::unique_ptr<Optimizer> base,
                const KfacOptimizerOptions& opts,
                const ExecContext& ctx = {});

  // Precondition (every step, stale inverses allowed) then base step.
  // Curvature/inversion refresh when due.
  void step(const std::vector<Param*>& params, double lr) override;

  // per_micro_curvature: accumulate the current layer caches into the
  // pending factor sums when the upcoming step is a curvature refresh.
  void on_micro_batch() override;

  const KfacEngine& engine() const { return engine_; }
  std::size_t steps_taken() const { return t_; }

 private:
  KfacEngine engine_;
  std::unique_ptr<Optimizer> base_;
  KfacOptimizerOptions opts_;
  ExecContext ctx_;
  std::size_t t_ = 0;
};

}  // namespace pf
