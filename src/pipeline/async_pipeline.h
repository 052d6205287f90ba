// Asynchronous pipelines (paper Appendix C.1): PipeDream-style 1F1B with
// NO pipeline flush. Bubbles all but vanish because the next mini-batch's
// forwards flow in behind the current one's backwards — but every stage
// computes gradients with weights that are up to D steps old.
//
// The appendix frames both designs as "filling bubbles":
//   async pipeline:  bubbles filled with stale-GRADIENT work
//                    θ_{t+1} = θ_t − η·g_{t−m}        (m up to D)
//   PipeFisher:      bubbles filled with stale-CURVATURE work
//                    θ_{t+1} = θ_t − η·F̂⁻¹_{t−n}·g_t  (fresh gradients)
//
// This module replays the async stream in virtual time and reports
// utilization plus the realized per-stage weight staleness so the two
// designs can be compared quantitatively (bench/ext_async_pipeline). The
// stream is the plan PipelineRuntime::run_flushless() executes for real:
// build_step_plan() over every micro-batch with micros_per_step = n_micro.
#pragma once

#include "src/pipeline/simulator.h"

namespace pf {

struct AsyncPipelineReport {
  Timeline timeline;          // the simulated stream
  double stream_makespan = 0.0;
  double utilization = 0.0;   // over the steady-state middle window
  // Weight staleness (in optimization steps) of the weights each stage's
  // forward uses, max over the steady state: PipeDream's m per stage.
  std::vector<double> staleness_per_stage;
  double max_staleness = 0.0;
  double throughput_micros_per_time = 0.0;
};

// Simulates `iterations` mini-batches of `n_micro` micro-batches streaming
// through a D-stage 1F1B pipeline without flush; each stage's sync-grad
// (0 s) and optimizer update (t_optimizer) run in its device chain after
// every n_micro-th backward, starting when the device's next op could.
AsyncPipelineReport simulate_async_1f1b(int n_stages, int n_micro,
                                        int iterations,
                                        const StepCosts& costs);

}  // namespace pf
