// Trace-calibrated cost model: close the simulator↔reality loop.
//
// The runtime records executed Timelines with realized wall-clock durations
// next to the simulator's prediction, and they disagree (executed
// utilization 0.45–0.53 vs a predicted 0.73 on the bench shape) — the
// closed forms assume unit costs, infinite cores and free dispatch. This
// module replaces the hand-set constants with measurements:
//
//  * CalibrationAccumulator ingests executed Timelines (live
//    PipelineRuntime runs via cfg.step_observer, or trace replays) and
//    fits the mean realized duration of every (WorkKind, stage) bucket —
//    T_f/T_b per stage, the B/W split of split-backward schedules, the
//    per-factor K-FAC curvature/commit/inversion/precondition terms, the
//    step-tail costs, and the per-boundary handoff overhead.
//  * CalibratedCosts is the fitted profile: a committable artifact
//    (to_json()/from_json() round-trip) that plugs into StepCosts
//    (to_step_costs()) and PerfModelInput (the `calibrated` pointer).
//  * predict_step() replays a StepPlan — the EXACT task graph
//    PipelineRuntime::step() executes, lanes/priorities/resources/deps and
//    all — through the library's one virtual-time engine (replay_plan,
//    pipeline/step_plan.h), under the fitted durations and a concurrency
//    cap equal to the executor's thread count (pool workers + the
//    participating main thread). Because the plan is shared with the
//    runtime and the fitted durations were sampled at the same worker
//    count (so CPU-oversubscription inflation is baked into them), the
//    prediction tracks executed makespans to within ~10% where the
//    uncalibrated closed form was off by ~50%. simulate_step replays its
//    own graph through the same engine, so the two models share one
//    dispatch rule by construction.
//
// DNNsim's simulate-with-CHECK idiom: every prediction this module emits
// is cross-checked against execution in bench/autotune_baseline and
// bench/pipeline_runtime_baseline, PF_CHECKed within a band and gated in
// CI.
#pragma once

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/pipeline/simulator.h"
#include "src/pipeline/step_plan.h"
#include "src/trace/timeline.h"

namespace pf {

// Fitted per-op-kind, per-stage realized costs (seconds). Vectors are
// indexed by model stage (size n_stages); a bucket never observed fits to
// 0 and the fallback-aware accessors below reconstruct it where possible
// (fused backward = B + W, split halves = fused × the fitted fraction).
struct CalibratedCosts {
  int n_stages = 0;
  // Executor concurrency the samples ran under (pool workers + main
  // thread). Predictions replay at this cap by default; a profile is only
  // transferable across runs with the same core budget.
  int n_threads = 0;
  // Residual multiplier: executed / replayed makespan of the calibration
  // burst itself. Absorbs what per-task means cannot see — executor
  // dispatch latency, allocator noise, CPU contention variance. Applied to
  // every predict_step() duration.
  double residual_scale = 1.0;
  // Per boundary-crossing dependency edge: consumer-start minus
  // producer-end when the consumer's lane was provably idle (channel
  // handoff + wakeup latency).
  double t_handoff = 0.0;
  // W / (B + W) fitted from split-backward timelines; 0.5 (the ZB-H1
  // modeling prior) when no split trace was ingested.
  double backward_w_fraction = 0.5;
  std::size_t samples = 0;  // intervals ingested

  // Distinct K-FAC factors observed per stage (6 per transformer block).
  std::vector<double> n_factors;

  std::vector<double> t_forward;     // fused forward pass
  std::vector<double> t_backward;    // fused backward (non-split traces)
  std::vector<double> t_backward_b;  // B (dx) pass   (split traces)
  std::vector<double> t_backward_w;  // W (dW) pass   (split traces)
  std::vector<double> t_curvature_a;  // per (factor, micro) task
  std::vector<double> t_curvature_b;
  std::vector<double> t_commit;       // per factor
  std::vector<double> t_inversion_a;
  std::vector<double> t_inversion_b;
  std::vector<double> t_precondition;
  std::vector<double> t_grad_final;  // owner-computes g *= 1/N
  std::vector<double> t_optimizer;   // per-stage base optimizer step

  // Fused backward cost of a stage: the fused bucket when observed, else
  // B + W from a split trace. 0 if neither was ingested.
  double fused_backward(int stage) const;
  // Split halves, falling back to fused × backward_w_fraction.
  double split_backward_b(int stage) const;
  double split_backward_w(int stage) const;

  // Means over stages with observations (0 if none).
  double mean_forward() const;
  double mean_backward() const;

  // Realized duration of one planned task. `split` selects the B/W or the
  // fused reading of WorkKind::kBackward. Throws when the kind was never
  // observed and cannot be reconstructed.
  double task_seconds(WorkKind kind, int stage, bool split) const;

  bool has_kfac() const;

  // Simulator plug-in: mean T_f/T_b with per-stage forward/backward scale
  // vectors, the fitted B/W split, t_handoff as t_p2p, and the mean
  // step-tail costs.
  StepCosts to_step_costs() const;

  // Committable-artifact serialization. The JSON is flat (numbers and
  // per-stage arrays under a "pf-calibrated-costs-v1" schema tag).
  // from_json throws pf::Error, naming the field, on malformed input, an
  // unknown schema, size-mismatched arrays and out-of-range values:
  // n_threads and samples must be non-negative integers that fit their
  // types, t_handoff >= 0, backward_w_fraction in (0, 1), residual_scale
  // > 0 and every per-stage value >= 0. Fuzzed in
  // tests/test_calibration.cpp.
  std::string to_json() const;
  static CalibratedCosts from_json(const std::string& json);
};

// Streaming fitter. Feed one executed Timeline per step (wire it as the
// runtime's cfg.step_observer); fit() aggregates whatever was seen.
// Split-backward timelines are auto-detected (they contain
// kBackwardWeight intervals) and route their kBackward intervals into the
// B bucket instead of the fused bucket, so one accumulator can ingest a
// fused burst and a split burst and fit both readings at once.
class CalibrationAccumulator {
 public:
  explicit CalibrationAccumulator(int n_stages);

  void ingest(const Timeline& timeline);

  // Directly measured boundary-handoff latency (seconds) — e.g. the
  // transport bench's ping-pong over a channel backend — folded into the
  // same sample pool ingest() fills from timeline gaps. fit() reads a low
  // percentile of the pool, so a handoff-only accumulator (no timelines)
  // is a valid way to fit t_handoff for one transport in isolation.
  void add_handoff_sample(double seconds);

  std::size_t steps_ingested() const { return steps_; }

  // Fit the profile. `n_threads` records the executor concurrency the
  // samples ran under (PipelineRuntime::executor_threads()).
  CalibratedCosts fit(int n_threads) const;

 private:
  struct Stat {
    std::size_t count = 0;
    double total = 0.0;
  };
  int n_stages_;
  std::size_t steps_ = 0;
  std::size_t samples_ = 0;
  // (kind, stage) -> aggregate; kBackward of split timelines is recorded
  // under kBackwardWeight's sibling key via split_b_ instead.
  std::map<std::pair<WorkKind, int>, Stat> fused_;
  std::map<int, Stat> split_b_;
  std::vector<double> handoff_samples_;
  std::vector<std::set<std::pair<int, int>>> factors_seen_;  // per stage
};

// Virtual-time replay of a StepPlan under fitted durations: an adapter
// that turns the profile into per-task seconds (task_seconds ×
// residual_scale) and hands them to replay_plan (pipeline/step_plan.h)
// with costs.t_handoff on cross-lane edges and a cap of `n_threads`
// simultaneously running tasks. Tasks the profile fits to 0 s (commit,
// gradient finalization, optimizer) are legal.
struct PlanPrediction {
  double makespan = 0.0;
  Timeline timeline;  // one lane per device, virtual clock

  double utilization() const {
    return makespan > 0.0 ? timeline.utilization(0.0, makespan) : 0.0;
  }
};

PlanPrediction predict_step(const StepPlan& plan, const CalibratedCosts& costs,
                            std::size_t n_threads);

}  // namespace pf
