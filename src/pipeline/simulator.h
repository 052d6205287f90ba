// Discrete-event pipeline simulator.
//
// Executes a ScheduleSpec under per-op costs and produces a Timeline — the
// simulated analog of the paper's Nsight profile of one pipeline step.
// simulate_step builds the step as a task graph (a StepPlan) and replays it
// through the library's one virtual-time engine, replay_plan
// (pipeline/step_plan.h), with one thread per device.
//
// Semantics:
//  * One task per op, on its device's lane; a device runs one op at a time.
//  * Forward(pl, s, m) requires Forward(pl, s-1, m). Backward(pl, s, m)
//    requires Forward(pl, s, m) and Backward(pl, s+1, m).
//  * A dependency on another device adds t_p2p (the engine's handoff). For
//    every registry schedule consecutive stages sit on different devices
//    when D >= 2, so this is "p2p on every stage boundary"; a hand-built
//    spec that put consecutive stages on one device would not pay t_p2p
//    between them.
//  * Static schedules run their programs head-of-line: each op depends on
//    the previous op of its device program and has its program position as
//    dispatch priority. dynamic_order schedules (Chimera, interleaved 1F1B)
//    run greedily: an idle device starts its ready op with the highest
//    priority — backward first, then the lowest micro index within its
//    pipeline, then the lower pipeline, then the shallower stage.
//  * split_backward schedules (ZB-H1) additionally float one
//    BackwardWeight(pl, s, m) op per backward, ready when its own B pass
//    ends, chained per (pipeline, stage) by ascending micro at priority
//    kWeightPriorityBase. A device starts a floating W only when no program
//    op is ready — it fills bubbles, it never displaces the critical path.
//  * Ties compare exactly: when a W becomes ready one ulp before the
//    program head, the W takes the slot.
//  * After the last pipeline op, each device runs the step tail:
//    sync-grad (Chimera: paired with the mirror device D-1-d, starting when
//    both are done), precondition (PipeFisher only), optimizer update.
//
// The step period is the tail's latest end; synchronous training repeats the
// step at that period (pipeline flush).
#pragma once

#include <map>

#include "src/pipeline/ops.h"
#include "src/trace/timeline.h"

namespace pf {

struct StepCosts {
  double t_forward = 1.0;      // per stage per micro-batch
  double t_backward = 2.0;     // per stage per micro-batch
  double t_p2p = 0.0;          // boundary-activation send/recv latency
  double t_sync_grad = 0.0;    // per device at step end (0 = skip)
  double t_precondition = 0.0; // per stage at step end (0 = skip)
  double t_optimizer = 0.0;    // per stage at step end (0 = skip)

  // Optional per-stage multipliers for forward and backward (size
  // n_stages; empty = uniform stages). Non-uniform architectures (the §5
  // CNN discussion) set both to the same values.
  std::vector<double> stage_forward_scale;
  std::vector<double> stage_backward_scale;

  // Zero-bubble split (split_backward schedules only): fraction of
  // t_backward spent in the deferred W (dW) pass; the B (dx) pass gets the
  // remainder so the halves always sum to the fused cost. The dW GEMM and
  // the dx GEMM + db reduction are the same FLOPs to first order, hence
  // the 50/50 default — ZB-H1's own modeling assumption. The default is a
  // MODELING prior, not a measurement: on this codebase the B pass also
  // carries all non-linear backward work (attention, norms, activations,
  // embedding scatter), so the executed split fitted from zb-h1 timelines
  // (CalibratedCosts::backward_w_fraction, perfmodel/calibration.h) is
  // well below 0.5 — BENCH_zero_bubble.json records the fitted value.
  double backward_w_fraction = 0.5;

  double forward_cost(int stage) const;
  double backward_cost(int stage) const;
  // B/W halves of backward_cost(stage); meaningful under split_backward.
  double backward_b_cost(int stage) const;
  double backward_w_cost(int stage) const;
};

class StepSimResult {
 public:
  StepSimResult(std::size_t n_devices) : timeline(n_devices) {}

  Timeline timeline;
  double pipe_makespan = 0.0;  // end of last forward/backward
  double step_time = 0.0;      // end of the step tail = step period
  // Realized per-device op order: the input programs for static schedules
  // (with each floating W where it ran), the greedy order for dynamic ones.
  std::vector<std::vector<PipeOp>> realized_programs;

  // End time of an executed op; throws if the op was not executed.
  double op_end(const PipeOp& op) const;
  bool has_op(const PipeOp& op) const;
  double op_start(const PipeOp& op) const;

  std::map<long, double> op_end_times;
  std::map<long, double> op_start_times;
};

StepSimResult simulate_step(const ScheduleSpec& spec, const StepCosts& costs);

// Convenience: total bubble (idle) time across devices within the pipeline
// portion [0, pipe_makespan] of the step.
double total_bubble_time(const StepSimResult& step);

}  // namespace pf
