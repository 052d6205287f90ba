// Executable step plan: the task graph PipelineRuntime::step() runs, as a
// pure value — every task's lane, dispatch priority, resource token and
// dependency edges, WITHOUT the bodies that do the work.
//
// Splitting plan construction from body attachment buys two things:
//  * the runtime's graph build becomes data the rest of the library can
//    inspect (tests assert over it instead of re-deriving orders);
//  * the perfmodel calibration layer (src/perfmodel/calibration.h) can
//    replay the EXACT graph the executor will run in virtual time under
//    fitted per-(kind, stage) durations — a prediction that shares every
//    structural property (head-of-line chains, floating W priorities,
//    K-FAC gap-filling tiers, resource exclusion) with reality, instead of
//    re-approximating them from closed forms.
//
// The plan is bitwise-load-bearing: PipelineRuntime attaches bodies to the
// tasks in plan order and asserts executor ids equal plan indices, so lanes,
// priorities and dependency edges here ARE the ones that pin the serial
// gradient-fold order. Change construction order only with the
// test_pipeline_runtime / test_zero_bubble bitwise grids green.
#pragma once

#include <cstddef>
#include <vector>

#include "src/pipeline/ops.h"
#include "src/trace/timeline.h"

namespace pf {

// Dispatch-priority tiers (smallest value dispatches first). Pipeline ops
// get their event-order position; deferred W passes (zb-h1) sit above every
// program position so a lane takes one only when no pipeline op is runnable
// — the executed analog of the simulator's floating W pools; step-tail
// tasks follow; K-FAC work sits above everything so it is only dispatched
// into lane idle time (realized bubbles).
constexpr long kWeightPriorityBase = 1L << 16;
constexpr long kTailPriorityBase = 1L << 18;
constexpr long kKfacPriorityBase = 1L << 20;

struct PlannedTask {
  std::size_t lane = 0;  // device the task runs on
  long priority = 0;
  int resource = -1;  // stage resource token, -1 = none
  std::vector<std::size_t> deps;  // indices into StepPlan::tasks

  WorkKind kind = WorkKind::kForward;
  int stage = -1, micro = -1, layer = -1, factor = -1;
  PipeOp op{};        // valid when is_op
  bool is_op = false;
};

struct StepPlan {
  std::vector<PlannedTask> tasks;
  std::size_t n_lanes = 0;
  bool split_backward = false;
};

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

// Builds the full step graph for one synchronous step:
//   pipeline F/B ops (creation order honors `device_order`), deferred W
//   chains (split_backward), per-stage gradient finalization, K-FAC
//   curvature/commit/inversion/precondition work for every stage with
//   factors_per_stage[s] > 0 (gated by curv_step / inv_step), and the
//   per-stage optimizer updates.
//
// `device_order` is the normalized event order (static programs or the
// greedy simulator's realized order); `factors_per_stage[s]` is the K-FAC
// engine's tracked-factor count on stage s (0 = no engine).
StepPlan build_step_plan(const ScheduleSpec& spec,
                         const std::vector<std::vector<PipeOp>>& device_order,
                         const std::vector<std::size_t>& factors_per_stage,
                         bool curv_step, bool inv_step);

}  // namespace pf
