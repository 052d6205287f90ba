// Trace-calibrated cost model: close the simulator↔reality loop.
//
// The runtime records executed Timelines with realized wall-clock durations
// next to the simulator's prediction, and they disagree (executed
// utilization 0.45–0.53 vs a predicted 0.73 on the bench shape) — the
// closed forms assume unit costs, infinite cores and free dispatch. This
// module replaces the hand-set constants with measurements:
//
//  * CalibrationAccumulator ingests executed Timelines (each live
//    PipelineRuntime step's last_executed_timeline(), or trace replays) and
//    fits the mean realized duration of every (WorkKind, stage) bucket —
//    T_f/T_b per stage, the B/W split of split-backward schedules, the
//    per-factor K-FAC curvature/commit/inversion/precondition terms, the
//    step-tail costs, and the per-boundary handoff overhead.
//  * CalibratedCosts is the fitted profile: one table of mean seconds
//    keyed the way plan tasks are, by (WorkKind, stage) — a split trace's
//    B passes as their own reading — plus the K-FAC factor layout, which
//    comes only from the calibrated runtime's stage partition (timelines
//    cannot show which factors share an input). It prices each task for
//    predict_step() and is written into committed bench JSON by to_json().
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
#include <string>
#include <vector>

#include "src/pipeline/step_plan.h"
#include "src/trace/timeline.h"

namespace pf {

// One reading of a calibrated profile: the plan's own (WorkKind, stage),
// with a split-backward trace's B passes kept apart from fused backwards
// (kBackward with split_b set), so one profile holds both readings.
struct CostKey {
  WorkKind kind = WorkKind::kForward;
  int stage = 0;
  bool split_b = false;
  auto operator<=>(const CostKey&) const = default;
};

// The artifact's per-stage rows in to_json() order: key name and reading.
struct CostRow {
  const char* name;
  WorkKind kind;
  bool split_b;
};
inline constexpr CostRow kCostRows[] = {
    {"t_forward", WorkKind::kForward, false},
    {"t_backward", WorkKind::kBackward, false},  // fused (non-split traces)
    {"t_backward_b", WorkKind::kBackward, true},  // B (dx) pass, split traces
    {"t_backward_w", WorkKind::kBackwardWeight, false},
    {"t_curvature_a", WorkKind::kCurvatureA, false},  // per (factor, micro)
    {"t_curvature_b", WorkKind::kCurvatureB, false},
    {"t_commit", WorkKind::kSyncCurvature, false},  // per factor
    {"t_inversion_a", WorkKind::kInversionA, false},
    {"t_inversion_b", WorkKind::kInversionB, false},
    {"t_precondition", WorkKind::kPrecondition, false},
    {"t_grad_final", WorkKind::kSyncGrad, false},  // owner-computes g *= 1/N
    {"t_optimizer", WorkKind::kOptimizerUpdate, false},  // per-stage step
};

// Fitted realized costs (seconds): one table of mean seconds per reading.
// A reading never observed is absent and reads 0; the fallback-aware
// accessors below reconstruct it where possible (fused backward = B + W,
// split halves = fused × the fitted fraction).
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

  // The K-FAC factors the calibrated runtime planned, which factors share
  // an input included: the only source of the profile's factor layout.
  // Timelines cannot show it, so fit() leaves it empty and the autotuner
  // sets it from its burst's stage partition; rank_candidates skips the
  // candidates of a profile without one.
  KfacFactors kfac_factors;

  // Mean realized seconds per reading; fit() copies one per bucket seen.
  std::map<CostKey, double> mean_seconds;

  // The fitted mean of one reading, 0 if never observed. Throws for a
  // stage outside the profile.
  double mean(WorkKind kind, int stage, bool split_b = false) const;

  // Fused backward cost of a stage: the fused reading when observed, else
  // B + W from a split trace. 0 if neither was ingested.
  double fused_backward(int stage) const;
  // Split halves, falling back to fused × backward_w_fraction.
  double split_backward_b(int stage) const;
  double split_backward_w(int stage) const;

  // Realized duration of one planned task. `split` selects the B/W or the
  // fused reading of WorkKind::kBackward. Throws when the kind was never
  // observed and cannot be reconstructed, except for the commit and the
  // step tail, which may fit to 0 s.
  double task_seconds(WorkKind kind, int stage, bool split) const;

  // Committable-artifact serialization: flat JSON (numbers at full
  // precision and per-stage arrays under a "pf-calibrated-costs-v1" schema
  // tag): the scalars, n_factors (each stage's factor count in
  // kfac_factors, 0 without a layout), then kCostRows. No reader exists
  // yet; one arrives with its first program user.
  std::string to_json() const;
};

// Streaming fitter. Feed one executed Timeline per step (the runtime's
// last_executed_timeline() after each step()); fit() aggregates whatever
// was seen.
// Split-backward timelines are auto-detected (they contain
// kBackwardWeight intervals) and record their kBackward intervals as the
// split_b reading instead of the fused one, so one accumulator can ingest a
// fused burst and a split burst and fit both readings at once. fit() copies
// each (kind, stage) bucket's mean into the profile's table.
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
  std::map<CostKey, Stat> buckets_;
  std::vector<double> handoff_samples_;
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
