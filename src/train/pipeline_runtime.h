// Executable pipeline-parallel training runtime: PipeFisher run for REAL.
//
// Where src/core/ packs simulated K-FAC work into a simulated Timeline,
// this module partitions an actual BertModel into stages
// (nn/stage_partition.h), executes every per-micro-batch forward/backward
// as a real task on a thread pool (common/task_executor.h) in the event
// order produced by the schedule registry — gpipe, 1f1b,
// interleaved-1f1b and chimera all drive the same code path — hands
// boundary activations and grad-activations over Channels (the mutex
// comm/stage_channel or the shm rings of comm/transport_channel, see
// `transport`), and dispatches the K-FAC engine's per-factor/per-micro
// work items (kfac/kfac_engine.h) into the realized idle gaps: K-FAC tasks
// carry lower dispatch priority than pipeline ops, and the executor's pick
// is global across idle lanes, so bubble work never takes a thread while
// an idle lane has a runnable pipeline op — the executable analog of
// core/bubble_assigner's greedy gap packing, with the simulator's
// readiness rules become task dependencies:
//
//   curvature-A(f, m)  after Forward(stage_of(f), m)   [+ the (f, m-1)
//   curvature-B(f, m)  after Backward(stage_of(f), m)    fold-order chain]
//   commit(f)          after every curvature task of f
//   inversion-A/B(f)   after commit(f)
//   precondition(f)    after inversion-B(f) and the stage's final gradient
//   optimizer(stage)   after every precondition of the stage
//
// Determinism contract (the headline property): a PipelineRuntime run is
// BITWISE identical to the serial `Trainer` with accumulation_steps =
// n_micro (same data seed, micro batch size, LR schedule, and a
// KfacOptimizer with per_micro_curvature = true) at every schedule, stage
// count, worker count and stage thread budget. The mechanisms:
//   * owner-computes reductions — each stage's parameters accumulate
//     gradients directly, and the per-model-stage backward chain forces
//     ascending global micro order: every gradient coordinate sees the
//     serial trainer's exact addition sequence;
//   * fixed handover order — activations cross stage boundaries keyed by
//     micro id; consumers depend on producers, so the values (not the
//     timing) of every handover are schedule-independent;
//   * per-factor fold chains — curvature contributions fold in ascending
//     micro order into the pending factor sums (kfac_engine.h contract);
//   * per-stage optimizers — LAMB's update is per-tensor, so per-stage
//     instances stepping their own parameters reproduce the global step.
//
// What each planned task does is bound in ONE place, shared with the
// forked launcher (train/multiproc.h): train/plan_binder.h's per-stage
// workers and PlanBinder::run(). step() and run_flushless() only wrap that
// call in executor closures, one per plan task.
//
// Each stage runs under its own ExecContext whose nn/GEMM budget is
// `stage_threads` (every value is bitwise-neutral); the runtime owns a
// dedicated ThreadPool of `workers` threads shared by stage ops, their
// nn-loop fan-out, GEMM/Cholesky row blocks (gemm.h / cholesky.h ctx
// overloads — nothing the stages or the K-FAC engines run dispatches on
// the process-global pool) and the bubble-filled K-FAC work.
//
// Memory: each stage's context carries a private ArenaAllocator
// (common/arena.h). Activation caches and stash traffic draw their
// storage from it and park dead buffers back, so steady-state steps
// recycle instead of malloc'ing; stages report per-step stash high-water
// marks and arena recycle counts through memory_stats().
//
// After each step or stream the runtime exposes the realized execution as a
// trace::Timeline (real wall-clock intervals, one lane per device) for
// comparison against the simulator's predicted schedule.
#pragma once

#include <functional>
#include <memory>

#include "src/comm/stage_channel.h"
#include "src/comm/transport_channel.h"
#include "src/common/arena.h"
#include "src/common/task_executor.h"
#include "src/data/mlm_batcher.h"
#include "src/nn/stage_partition.h"
#include "src/optim/kfac_optimizer.h"
#include "src/pipeline/schedule_registry.h"
#include "src/pipeline/step_plan.h"
#include "src/train/trainer.h"

namespace pf {

struct PipelineRuntimeConfig {
  std::string schedule = "1f1b";   // any flush schedule in the registry
  int n_stages = 2;                // pipeline depth D (devices)
  int n_micro = 4;                 // micro-batches per step
  int virtual_chunks = 2;          // interleaved-1f1b only
  std::size_t micro_batch_size = 8;
  std::size_t total_steps = 50;
  PolyWarmupSchedule lr{1e-3, 30, 300};
  std::uint64_t data_seed = 99;
  // Per-stage ExecContext budget: nn-loop chunks and GEMM row blocks of
  // every op the stage runs (bitwise-neutral; >= 1).
  int stage_threads = 1;
  // Runtime pool size. 0 = one worker per device. The pool is shared by
  // inter-stage parallelism, the stages' nn-loop fan-out, their GEMM and
  // Cholesky row blocks and bubble K-FAC work (see above).
  int workers = 0;
  bool use_kfac = true;
  // K-FAC knobs; per_micro_curvature is implied (the runtime always
  // accumulates curvature per micro-batch — the paper's semantics).
  KfacOptimizerOptions kfac;
  // Base optimizer, instantiated once per stage (LAMB when unset, per-
  // tensor like the serial reference).
  std::function<std::unique_ptr<Optimizer>()> base_optimizer;
  // Boundary transport: "" resolves through PF_TRANSPORT then defaults to
  // "inproc" (mutex StageChannel). "shm" hands boundary tensors over
  // lock-free shared-memory rings (comm/transport_channel.h) — bitwise
  // identical payloads, single-pipeline schedules only (the rings are
  // SPSC; Chimera puts two producer devices on one boundary).
  std::string transport;
  // Duration-aggregation hook: called after every synchronous step() with
  // the realized wall-clock Timeline. This is how executed durations flow
  // into the perfmodel calibration fit (CalibrationAccumulator::ingest)
  // without the caller having to poll last_executed_timeline() between
  // steps of run(). Not called by run_flushless(): its one timeline spans
  // the whole stream, not a step.
  std::function<void(const Timeline&)> step_observer;
};

class PlanBinder;

class PipelineRuntime {
 public:
  PipelineRuntime(BertModel& model, const MlmBatcher& batcher,
                  const PipelineRuntimeConfig& cfg);
  ~PipelineRuntime();

  // One synchronous training step (n_micro micros + flush + optimizer);
  // returns the accumulated losses exactly as Trainer::step does.
  BertLossBreakdown step();

  // cfg.total_steps steps; trace shape identical to Trainer::run().
  TrainTrace run();

  // PipeDream-style flushless streaming (e.g. 1f1b-flushless): ONE plan
  // over total_steps · n_micro global micros — cfg.schedule's program over
  // all of them, with no flush between steps — built by build_step_plan()
  // with micros_per_step = n_micro, so each stage's sync-grad and optimizer
  // update join its device chain after the stage's step-closing backward.
  // Executed exactly like a step(). Later forwards read whatever weight
  // version their stage has applied by then (the paper's Appendix C.1
  // stale-weight semantics): last_executed_timeline() shows, per lane, how
  // many kOptimizerUpdate intervals precede each op. Bitwise deterministic
  // across worker counts: every read/write of a stage's weights — forward,
  // backward, update — runs on that stage's lane, head-of-line chained.
  // Requires a flushless schedule, use_kfac = false (no step boundary
  // anchors curvature refreshes), and streams once per runtime instance.
  // step()/run() reject flushless schedules; this is their streaming
  // counterpart.
  TrainTrace run_flushless();

  const ScheduleSpec& spec() const { return spec_; }
  std::size_t steps_taken() const { return t_; }
  // Resolved boundary transport ("inproc" or "shm").
  const std::string& transport() const { return transport_; }

  // The exact task graph step() would execute for a step with the given
  // K-FAC refresh flags: every lane, priority, resource token and
  // dependency edge, minus the bodies. step() binds every task of this plan
  // to PlanBinder::run() (executor ids == plan indices), so a calibrated
  // virtual-time replay of the plan (perfmodel/calibration.h) predicts the
  // same structure reality runs.
  StepPlan make_step_plan(bool curv_step, bool inv_step) const;
  // Threads that drain the step's task graph: the runtime pool's workers
  // plus the main thread, which participates in TaskExecutor::run(). The
  // concurrency cap a calibrated prediction should replay under.
  std::size_t executor_threads() const { return pool_->n_threads() + 1; }

  // --- Introspection (tests, benches, the example's report) -------------
  // Planned per-device op order (the registry's programs, or the greedy
  // simulator's realized order for dynamic schedules).
  const std::vector<std::vector<PipeOp>>& planned_order() const {
    return device_order_;
  }
  // Per-device op order actually executed last step (sorted by realized
  // start time).
  std::vector<std::vector<PipeOp>> last_realized_order() const;
  // Executed wall-clock timeline of the last step or stream (one lane per
  // device).
  const Timeline& last_executed_timeline() const { return last_timeline_; }
  double last_step_wall_seconds() const { return last_wall_seconds_; }
  // Realized handover order on a boundary (micro ids in send order).
  std::vector<int> forward_send_order(int boundary) const;
  std::vector<int> backward_send_order(int boundary) const;
  // Per-stage memory telemetry of the last step: stash high-water mark and
  // the stage arena's recycle/fresh acquisition counts (deltas over the
  // step) plus the bytes parked in it now.
  struct StageMemoryStats {
    std::size_t peak_stash_bytes = 0;
    std::size_t arena_recycled = 0;
    std::size_t arena_fresh = 0;
    std::size_t arena_free_bytes = 0;
  };
  const std::vector<StageMemoryStats>& memory_stats() const {
    return last_memory_stats_;
  }

 private:
  // Binds every task of `plan` to PlanBinder::run(), runs them on the pool
  // and keeps the plan, the executor records and the Timeline.
  void execute(StepPlan plan);
  // Executed task ids of the last step per lane, in realized start order.
  std::vector<std::vector<std::size_t>> executed_by_lane() const;

  PipelineRuntimeConfig cfg_;
  ScheduleSpec spec_;
  BertStagePartition partition_;
  std::unique_ptr<ThreadPool> pool_;
  std::vector<std::vector<PipeOp>> device_order_;
  std::vector<std::size_t> kfac_factors_;         // per stage, 0 = none
  std::string transport_;                         // resolved backend
  std::vector<SharedRegion> regions_;             // ring storage (shm only)
  std::vector<std::unique_ptr<Channel>> fwd_ch_;  // boundary s -> s+1
  std::vector<std::unique_ptr<Channel>> bwd_ch_;  // boundary s+1 -> s
  std::unique_ptr<PlanBinder> binder_;            // every stage's worker
  // The last step's plan and its executor records (same indices): the
  // Timeline and last_realized_order() read lane, kind, stage, micro and
  // op from the plan.
  StepPlan last_plan_;
  std::vector<TaskExecutor::Record> last_records_;
  Timeline last_timeline_;
  std::vector<StageMemoryStats> last_memory_stats_;
  double last_wall_seconds_ = 0.0;
  std::size_t t_ = 0;
};

}  // namespace pf
