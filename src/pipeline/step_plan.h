// Step plan: a pipeline step as a task graph — every task's lane, dispatch
// priority, resource token and dependency edges, WITHOUT the bodies that do
// the work — and the one virtual-time engine that replays such a graph.
//
// Two builders produce StepPlans:
//  * build_step_plan() below: the graph PipelineRuntime executes — one
//    synchronous step for step() and the forked launcher, or the whole
//    flushless stream (micros_per_step < n_micro) for run_flushless(),
//    which simulate_async_1f1b (pipeline/async_pipeline.h) also replays;
//  * the paper's idealized step (pipeline/simulator.h): simulate_step()
//    describes the schedule as a plan and replays it.
// replay_plan() is the library's only virtual-time scheduler.
// simulate_step, simulate_async_1f1b and perfmodel's predict_step
// (src/perfmodel/calibration.h) all call it; they differ only in the graph
// and the per-task seconds they hand it.
//
// The runtime plan is bitwise-load-bearing: PipelineRuntime attaches bodies
// to the tasks in plan order and asserts executor ids equal plan indices,
// so lanes, priorities and dependency edges here ARE the ones that pin the
// serial gradient-fold order. Change construction order only with the
// test_pipeline_runtime / test_zero_bubble bitwise grids green.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "src/pipeline/ops.h"
#include "src/trace/timeline.h"

namespace pf {

// Dispatch-priority tiers (smallest value dispatches first). Pipeline ops
// get their event-order position; deferred W passes (zb-h1) sit above every
// program position so a lane takes one only when no pipeline op is runnable
// — W passes float into idle time; step-tail tasks follow; K-FAC work sits
// above everything so it is only dispatched into lane idle time (realized
// bubbles). Within the K-FAC tier the stages share fairly: the i-th of the
// n_s K-FAC tasks stage s creates ranks by the fraction i / n_s of its
// stage's sequence, ties broken by stage, and gets kKfacPriorityBase + its
// rank. (With equal sequences that is i·S + s.) When threads are fewer
// than lanes, every stage's bubble work then advances at the same pace —
// uneven block splits included — instead of stage 0's finishing first,
// and no lane is left running its K-FAC alone at the end of the step.
constexpr long kWeightPriorityBase = 1L << 16;
constexpr long kTailPriorityBase = 1L << 18;
constexpr long kKfacPriorityBase = 1L << 20;

// The K-FAC factors build_step_plan plans, per stage in the order of the
// stage's engine. input_owner[s][f] is the factor whose input factor f
// reads: f itself, or an earlier factor of the stage (nn's
// Linear::read_input_of — attention's wk and wv read wq's input, which
// BertStage::kfac_input_owners() reports). Such a factor gets no
// curvature-A chain; its commit takes its owner's A factor and follows the
// owner's commit. An empty list: the stage runs no K-FAC.
struct KfacFactors {
  std::vector<std::vector<std::size_t>> input_owner;

  KfacFactors() = default;
  explicit KfacFactors(std::vector<std::vector<std::size_t>> owners)
      : input_owner(std::move(owners)) {}
  // counts[s] factors on stage s, each reading its own input.
  KfacFactors(const std::vector<std::size_t>& counts);
};

struct PlannedTask {
  std::size_t lane = 0;  // device the task runs on
  long priority = 0;
  int resource = -1;  // stage resource token, -1 = none
  std::vector<std::size_t> deps;  // indices into StepPlan::tasks

  WorkKind kind = WorkKind::kForward;
  int stage = -1, micro = -1, layer = -1, factor = -1;
  // Step a kSyncGrad / kOptimizerUpdate tail closes, counted from the
  // plan's first step (always 0 in a one-step plan).
  int step = 0;
  PipeOp op{};        // valid when is_op
  bool is_op = false;
};

struct StepPlan {
  std::vector<PlannedTask> tasks;
  std::size_t n_lanes = 0;
  bool split_backward = false;
};

// --- The virtual-time engine ------------------------------------------------
//
// replay_plan() is a greedy list scheduler with TaskExecutor's dispatch rule
// (common/task_executor.h). Whenever one of `n_threads` threads is free, it
// starts the startable task with the smallest (priority, index). A task is
// startable when every dep has finished and its handoff has elapsed, its
// lane is idle and its resource token is free. A dep on another lane delays
// its dependent by `handoff` seconds; a dep on the same lane does not. Times
// compare exactly: two tasks that become startable one ulp apart are not a
// tie.
//
// Any acyclic plan replays; deps need not precede their dependents (only
// TaskExecutor needs that, and build_step_plan keeps it). A dependency cycle
// throws a deadlock error naming a stuck task.
struct PlanReplay {
  std::vector<double> start, end;  // per task, seconds from step start
  double makespan = 0.0;
  // Per lane, task indices in start order; equal starts order by end, then
  // index, so a zero-length task precedes the task it abuts.
  std::vector<std::vector<std::size_t>> lanes;
};

PlanReplay replay_plan(const StepPlan& plan, const std::vector<double>& seconds,
                       double handoff, std::size_t n_threads);

// The replay as a per-lane Timeline: one interval per task, in
// PlanReplay::lanes order, labeled with the task's kind, stage, micro,
// layer and factor.
Timeline replay_timeline(const StepPlan& plan, const PlanReplay& replay);

// True for the K-FAC work kinds (curvature A/B, commit, inversion A/B,
// precondition).
bool is_kfac_kind(WorkKind k);

// Rewrites each device's op order so that, within every (pipeline, stage)
// group, the backwards visit micros in ascending order — the gradient-
// accumulation order the bitwise contract requires (see
// train/pipeline_runtime.h). 1F1B and the greedy orders are already
// ascending per stage; GPipe's LIFO backward drain becomes FIFO (same
// critical path under uniform costs; the activation stash is keyed by
// micro, so LIFO buys nothing here).
void normalize_backward_order(std::vector<std::vector<PipeOp>>& programs);

// The event order a runtime step plan follows: the static programs, or for
// dynamic_order schedules the order simulate_step realizes under unit
// §3.3 costs; backward-normalized either way.
std::vector<std::vector<PipeOp>> plan_device_order(const ScheduleSpec& spec);

// Builds the full task graph of one synchronous step (or of a stream, see
// micros_per_step below):
//   pipeline F/B ops (creation order honors `device_order`), deferred W
//   chains (split_backward), per-stage gradient finalization, K-FAC
//   curvature/commit/inversion/precondition work for every stage with
//   factors (gated by curv_step / inv_step), and the per-stage optimizer
//   updates.
//
// `device_order` is plan_device_order(spec); `factors` holds one entry per
// stage (see KfacFactors; a plain count per stage plans factors that each
// read their own input).
//
// `micros_per_step` (0 = spec.n_micro) cuts the plan into steps: a value
// below spec.n_micro that divides it makes the plan a flushless stream of
// n_micro / micros_per_step steps (static, unsplit programs without K-FAC
// only). After each stage's step-closing backward, except in the last
// step, the stage's tail — kSyncGrad, then kOptimizerUpdate, tagged with
// PlannedTask::step — joins its device chain. The tail takes the deps of
// the device's next op, so it starts when that op could, and that op then
// waits for it. The last step keeps the end-of-plan tail.
StepPlan build_step_plan(const ScheduleSpec& spec,
                         const std::vector<std::vector<PipeOp>>& device_order,
                         const KfacFactors& factors, bool curv_step,
                         bool inv_step, int micros_per_step = 0);

}  // namespace pf
