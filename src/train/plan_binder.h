// One execution path for training: the per-stage worker and the plan-task
// binder that every training executor runs.
//
// StageWorker holds one pipeline stage's training state: the stage view,
// its arena, ExecContext, optimizer, K-FAC engine and params. PlanBinder
// owns the workers of the stages one process runs, and its run() is the
// ONLY place in the library where a planned task's WorkKind turns into
// training work:
//   * PipelineRuntime::step() and run_flushless() wrap run() in their
//     TaskExecutor closures, one per task of a build_step_plan() plan;
//   * a forked child of run_multiproc filters the step plan by lane and
//     calls run() in plan-index order.
// The StepPlan that perfmodel's predict_step replays is therefore, by
// construction, the work every executor runs.
//
// Thread safety: run() touches only the task's own stage (serialized by
// the plan's stage resource tokens and lane chains) and state fixed by
// begin_step(), so executor threads may call it concurrently.
#pragma once

#include <memory>
#include <vector>

#include "src/train/pipeline_runtime.h"

namespace pf {

// The schedule a runtime config names (registry build).
ScheduleSpec build_runtime_schedule(const PipelineRuntimeConfig& cfg);

// Tracked K-FAC factors per stage, the plan builder's input: 0 where the
// stage runs no K-FAC engine. Needs no engine, so a launcher can plan
// before it forks.
std::vector<std::size_t> kfac_factor_counts(const BertStagePartition& part,
                                            bool use_kfac);

struct StageWorker {
  BertStage* stage = nullptr;  // null: another process owns the stage
  std::vector<Param*> params;
  std::unique_ptr<ArenaAllocator> arena;
  ExecContext ctx;
  std::unique_ptr<Optimizer> opt;
  std::unique_ptr<KfacEngine> engine;  // null: no K-FAC on this stage
};

// Boundary channels and how a receive waits on them.
struct StageLinks {
  std::vector<Channel*> fwd;  // boundary b: activations b -> b+1
  std::vector<Channel*> bwd;  // boundary b: gradients b+1 -> b
  // 0: one address space. Every consumer depends on its producer in the
  // plan, so a receive is a non-blocking take() — a missing payload is a
  // missing dependency and throws at once — keyed by the step's micro id.
  // > 0: forked peers. A receive blocks in recv() for up to this many
  // seconds, keyed by the global micro id t·N + m: a fast peer may send
  // the next step's payloads before a slow one drains this step's.
  double recv_timeout = 0.0;
};

class PlanBinder {
 public:
  // Builds a worker for every stage in `owned`. Calls cfg.base_optimizer
  // (LAMB when unset) exactly once per owned stage and starts no thread:
  // contexts and engines dispatch on `pool`. The partition, config and
  // batcher must outlive the binder.
  PlanBinder(BertStagePartition& partition, const ScheduleSpec& spec,
             const PipelineRuntimeConfig& cfg, const MlmBatcher& batcher,
             ThreadPool* pool, const std::vector<int>& owned,
             StageLinks links);

  // Step preamble, exactly the serial Trainer's: draws `n_batches`
  // micro-batches in the serial order (one data RNG across steps), zeroes
  // the owned stages' gradients, clears their stashes and fixes step t's
  // K-FAC refresh flags. A stream's plan starts at t and draws every
  // step's batches up front.
  void begin_step(std::size_t t, int n_batches);
  // Parks the owned stages' surviving stashes in their arenas.
  void end_step();
  bool curv_step() const { return curv_step_; }
  bool inv_step() const { return inv_step_; }

  // Runs one planned task's work. `task.micro` indexes the batches
  // begin_step() drew. kOptimizerUpdate steps the stage at the LR of step
  // t + task.step and leaves its gradients zero for the next step's fold.
  void run(const PlannedTask& task);

  // The last stage's losses over micros [first, first + n), summed in
  // micro order and averaged, exactly as Trainer::step folds them.
  BertLossBreakdown mean_loss(int first, int n) const;

  StageWorker& worker(int s) { return workers_[static_cast<std::size_t>(s)]; }

 private:
  void forward(int s, int micro);
  void backward(int s, int micro, bool keep_kfac_stash, bool defer_dw);
  // Averages the stage's accumulated gradients over the step's micros.
  void sync_grads(int s);
  Matrix receive(Channel* ch, int micro) const;
  bool keeps_kfac_stash(const StageWorker& w) const {
    return curv_step_ && w.engine != nullptr;
  }

  const BertStagePartition& partition_;
  const PipelineRuntimeConfig& cfg_;
  const MlmBatcher& batcher_;
  StageLinks links_;
  int n_micro_;
  bool split_;
  Rng data_rng_;
  std::vector<StageWorker> workers_;  // indexed by stage

  // Fixed by begin_step().
  std::vector<BertBatch> batches_;
  std::size_t t_ = 0;
  bool curv_step_ = false, inv_step_ = false;
  int key_base_ = 0;
};

}  // namespace pf
