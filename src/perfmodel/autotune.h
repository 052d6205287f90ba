// Schedule autotuner: calibrate, sweep, rank, execute, cross-check.
//
// The paper picks its schedule by hand (1F1B for the main results, Chimera
// in §5); this module makes the choice empirical on the machine at hand:
//
//   1. Calibration burst — short live PipelineRuntime runs (1f1b for the
//      fused costs + K-FAC terms at every model-stage count the sweep
//      needs, zb-h1 for the B/W split) feed a CalibrationAccumulator; the
//      fitted CalibratedCosts (a (kind, stage) table of mean seconds)
//      takes its K-FAC factor layout from the burst's stage partition and
//      carries a residual_scale anchored on the burst's own
//      executed-vs-replayed makespan.
//   2. rank_candidates() — a PURE function of (profiles, options): for
//      every registry schedule at the options' D and N it builds the exact
//      StepPlan the runtime would execute, replays it under the fitted
//      costs (perfmodel/calibration.h), amortizes the K-FAC inversion
//      cycle, and ranks by predicted seconds per sequence. Purity makes
//      the ranking reproducible from a committed profile artifact alone —
//      asserted in tests/test_calibration.cpp.
//   3. autotune() — runs the burst, ranks, and (measure_steps > 0)
//      executes the candidates so the winner's realized makespan can be
//      PF_CHECKed against its prediction — DNNsim's simulate-with-CHECK
//      idiom, gated in bench/autotune_baseline + CI.
//
// Every live run — burst and measured window — trains with K-FAC, one
// nn/GEMM thread per stage, model seed 7, data seed 99 and base learning
// rate 1e-2; interleaved-1f1b candidates run 2 chunks per device.
//
// Skipped candidates are reported with reasons, never silently dropped:
// flushless schedules (no synchronous step to plan), >2 pipelines (runtime
// ceiling), parameter-constraint violations, missing profiles, profiles
// without a K-FAC factor layout.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "src/data/mlm_batcher.h"
#include "src/nn/bert.h"
#include "src/perfmodel/calibration.h"
#include "src/pipeline/schedule_registry.h"

namespace pf {

struct AutotuneOptions {
  // Device budget D and micro-batches per step N: the sweep is one (D, N)
  // point per schedule. Empty `schedules` = every registered schedule.
  int n_devices = 4;
  int n_micro = 8;
  std::size_t micro_batch_size = 8;
  std::vector<std::string> schedules;

  // Runtime pool size of every live run (must match between burst and
  // candidates — a profile is only valid at the worker count it was fitted
  // under).
  int workers = 2;

  // K-FAC inversion cycle of the candidates; the burst itself always runs
  // curvature_interval = inverse_interval = 1 for maximal samples.
  int inverse_interval = 3;

  // Burst length per needed stage count (>= 2; step 0 is discarded as the
  // cold step — first-touch allocation and cache warmup inflate it).
  std::size_t burst_steps = 4;
  // 0 = predict-only sweep. Otherwise each viable candidate is executed
  // for this many steps (inverse_interval + 1 makes the measured window
  // exactly one amortization cycle after the discarded cold step).
  std::size_t measure_steps = 0;
};

struct AutotuneCandidate {
  std::string schedule;
  ScheduleParams params;
  int model_stages = 0;

  bool viable = false;
  std::string skip_reason;  // set when !viable

  // Amortized over the K-FAC inversion cycle: ((I-1)·curv + inv) / I.
  double predicted_makespan = 0.0;
  double predicted_seconds_per_sequence = 0.0;
  double predicted_utilization = 0.0;

  // Mean executed makespan over the measured window (0 until measured).
  double executed_makespan = 0.0;
};

struct AutotuneReport {
  // Fitted profiles keyed by MODEL-stage count (interleaved candidates
  // look up D·V, everything else D).
  std::map<int, CalibratedCosts> profiles;
  // Viable candidates first (fastest predicted first), then skipped ones.
  std::vector<AutotuneCandidate> ranked;
  double burst_seconds = 0.0;   // wall clock spent calibrating
  std::size_t burst_steps_run = 0;

  const AutotuneCandidate& winner() const;
};

// The pure ranking core: deterministic in (profiles, options); touches no
// model, no clock, no RNG. Throws pf::Error only on structurally invalid
// options (no candidates at all).
std::vector<AutotuneCandidate> rank_candidates(
    const std::map<int, CalibratedCosts>& profiles,
    const AutotuneOptions& options);

// Full loop: burst -> fit -> rank -> (optionally) execute candidates.
AutotuneReport autotune(const BertConfig& model_cfg, const MlmBatcher& batcher,
                        const AutotuneOptions& options);

}  // namespace pf
