// Trace-calibrated cost model + schedule autotuner
// (src/perfmodel/calibration.h, src/perfmodel/autotune.h):
//   * dispatch agreement — a zero-worker TaskExecutor runs every executable
//     schedule's StepPlan in exactly predict_step()'s one-thread start
//     order (LAMB and K-FAC plans);
//   * zero-cost tasks — profiles that fit tail tasks to 0 s replay on
//     every executable shape;
//   * round-trip exactness — a synthetic simulator timeline fitted and
//     replayed through predict_step() reproduces the simulated makespan
//     (fused and zero-bubble-split variants);
//   * the profile artifact — to_json() writes every field, each number
//     reading back exactly, and its bytes match a golden string;
//   * autotuner determinism — rank_candidates() is a pure function of
//     (profiles, options);
//   * the factor layout rule — a profile without a K-FAC factor layout
//     skips its candidates, with a reason;
//   * K-FAC inversion accounting — executed inversion counts per device
//     match the stage-ownership model the perf model's w multiplier
//     assumes (Chimera: 1 owned pipeline-0 stage; interleaved: V chunks);
//   * an end-to-end autotune run whose executed winner lands within a
//     loose band of its calibrated prediction (the tight 10% gate lives in
//     bench/autotune_baseline with the one-retry idiom — wall-clock bands
//     in unit tests must tolerate CI noise).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iterator>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/task_executor.h"
#include "src/perfmodel/autotune.h"
#include "src/perfmodel/calibration.h"
#include "src/pipeline/simulator.h"
#include "src/pipeline/step_plan.h"
#include "src/train/pipeline_runtime.h"
#include "src/train/plan_binder.h"

namespace pf {
namespace {

BertConfig small_bert(std::size_t n_layers = 4) {
  BertConfig cfg;
  cfg.vocab = 36;
  cfg.d_model = 16;
  cfg.d_ff = 32;
  cfg.n_heads = 2;
  cfg.n_layers = n_layers;
  cfg.seq_len = 12;
  return cfg;
}

struct Corpus {
  SyntheticCorpus corpus;
  MlmBatcher batcher;
  explicit Corpus(const BertConfig& cfg)
      : corpus([&] {
          CorpusConfig cc;
          cc.vocab = cfg.vocab;
          return cc;
        }()),
        batcher(corpus, [&] {
          MlmBatcherConfig bc;
          bc.seq_len = cfg.seq_len;
          return bc;
        }()) {}
};

// A fully-populated synthetic profile at 4 model stages: every reading
// positive so any plan is predictable from it, and the K-FAC factor layout
// the runtime plans for small_bert(4) — one block per stage, whose wk and
// wv read wq's input.
CalibratedCosts synthetic_profile() {
  CalibratedCosts c;
  c.n_stages = 4;
  c.n_threads = 3;
  c.residual_scale = 1.0;
  c.t_handoff = 1e-4;
  c.backward_w_fraction = 0.4;
  c.samples = 123;
  Rng rng(7);
  BertModel model(small_bert(4), rng);
  c.kfac_factors = kfac_factors(BertStagePartition(model, 4), true);
  const double per_stage[][4] = {  // kCostRows order
      {1.0e-3, 1.5e-3, 0.75e-3, 1.25e-3},  // t_forward
      {2.0e-3, 1.8e-3, 2.2e-3, 2.6e-3},    // t_backward
      {1.2e-3, 1.1e-3, 1.3e-3, 1.6e-3},    // t_backward_b
      {0.8e-3, 0.7e-3, 0.9e-3, 1.0e-3},    // t_backward_w
      {1e-4, 1.2e-4, 0.9e-4, 1.1e-4},      // t_curvature_a
      {1e-4, 1.0e-4, 1.0e-4, 1.0e-4},      // t_curvature_b
      {2e-5, 2e-5, 2e-5, 2e-5},            // t_commit
      {3e-4, 3e-4, 3e-4, 3e-4},            // t_inversion_a
      {3e-4, 3.5e-4, 2.5e-4, 3e-4},        // t_inversion_b
      {5e-5, 5e-5, 5e-5, 5e-5},            // t_precondition
      {1e-6, 1e-6, 1e-6, 1e-6},            // t_grad_final
      {4e-5, 4e-5, 4e-5, 4e-5},            // t_optimizer
  };
  static_assert(std::size(per_stage) == std::size(kCostRows));
  for (std::size_t r = 0; r < std::size(kCostRows); ++r)
    for (int s = 0; s < 4; ++s)
      c.mean_seconds[{kCostRows[r].kind, s, kCostRows[r].split_b}] =
          per_stage[r][s];
  return c;
}

StepPlan plan_of(const ScheduleSpec& spec) {
  const std::vector<std::size_t> factors(
      static_cast<std::size_t>(spec.n_stages), 0);
  return build_step_plan(spec, plan_device_order(spec), factors, false, false);
}

}  // namespace

// --- Dispatch agreement ---------------------------------------------------

// predict_step replays TaskExecutor's dispatch rule. With one thread and
// unit costs every task starts alone, so the replay's start order must be
// exactly the order a zero-worker executor (serial on the caller) runs the
// same plan in — for every schedule the runtime executes, with and without
// K-FAC work in the bubbles.
TEST(DispatchAgreement, ZeroWorkerExecutorRealizesPredictStepOrder) {
  ScheduleParams p;
  p.n_stages = 4;
  p.n_micro = 8;
  p.virtual_chunks = 2;
  using Key = std::tuple<std::size_t, WorkKind, int, int, int, int>;
  for (const std::string& name : list_schedules()) {
    const ScheduleTraits& traits = traits_of(name);
    if (!traits.flush || traits.n_pipelines > 2) continue;  // not executable
    const ScheduleSpec spec = build_schedule(name, p);
    const auto S = static_cast<std::size_t>(spec.n_stages);
    CalibratedCosts unit;
    unit.n_stages = spec.n_stages;
    unit.n_threads = 1;
    for (const CostRow& row : kCostRows)
      for (int s = 0; s < spec.n_stages; ++s)
        unit.mean_seconds[{row.kind, s, row.split_b}] = 1.0;
    for (const bool kfac : {false, true}) {
      const std::string label = name + (kfac ? " kfac" : " lamb");
      const StepPlan plan = build_step_plan(
          spec, plan_device_order(spec),
          std::vector<std::size_t>(S, kfac ? 6 : 0), kfac, kfac);

      auto intervals = predict_step(plan, unit, 1).timeline.all_intervals();
      std::stable_sort(intervals.begin(), intervals.end(),
                       [](const Interval& a, const Interval& b) {
                         return a.start < b.start;
                       });
      std::vector<Key> predicted;
      for (const Interval& iv : intervals)
        predicted.emplace_back(iv.device, iv.kind, iv.stage, iv.micro,
                               iv.layer, iv.factor);

      ThreadPool pool(0);
      TaskExecutor ex(pool, plan.n_lanes);
      std::vector<std::size_t> ran;
      for (std::size_t i = 0; i < plan.tasks.size(); ++i) {
        const PlannedTask& t = plan.tasks[i];
        ex.add([&ran, i] { ran.push_back(i); }, t.lane, t.priority, t.deps,
               t.resource);
      }
      ex.run();
      std::vector<Key> realized;
      for (const std::size_t i : ran) {
        const PlannedTask& t = plan.tasks[i];
        realized.emplace_back(t.lane, t.kind, t.stage, t.micro, t.layer,
                              t.factor);
      }

      ASSERT_EQ(realized.size(), plan.tasks.size()) << label;
      ASSERT_EQ(predicted.size(), realized.size()) << label;
      const auto diverge = std::mismatch(realized.begin(), realized.end(),
                                         predicted.begin());
      EXPECT_TRUE(diverge.first == realized.end())
          << label << ": the executor's start "
          << diverge.first - realized.begin()
          << " differs from predict_step's";
    }
  }
}

// Profiles may fit the commit, gradient-finalization and optimizer buckets
// to 0 s. A zero-length task then starts when the next task on its lane
// starts; the replay's timeline must still order every lane (equal starts
// by end, then index) instead of throwing "overlapping interval".
TEST(PredictStep, ZeroCostTasksReplayOnEveryShape) {
  int shapes = 0;
  for (const std::string& name : list_schedules()) {
    const ScheduleTraits& traits = traits_of(name);
    if (!traits.flush || traits.n_pipelines > 2) continue;  // not executable
    for (const int d : {2, 4})
      for (const int n : {4, 8, 16}) {
        ScheduleParams p;
        p.n_stages = d;
        p.n_micro = n;
        p.virtual_chunks = 2;
        const ScheduleSpec spec = build_schedule(name, p);
        const auto S = static_cast<std::size_t>(spec.n_stages);
        CalibratedCosts prof;
        prof.n_stages = spec.n_stages;
        for (const CostRow& row : kCostRows) {
          const bool zero = row.kind == WorkKind::kSyncCurvature ||
                            row.kind == WorkKind::kSyncGrad ||
                            row.kind == WorkKind::kOptimizerUpdate;
          for (int s = 0; s < spec.n_stages; ++s)
            prof.mean_seconds[{row.kind, s, row.split_b}] = zero ? 0.0 : 1e-3;
        }
        const StepPlan plan = build_step_plan(
            spec, plan_device_order(spec), std::vector<std::size_t>(S, 6),
            true, true);
        for (const std::size_t threads : {1, 2, 3, 8}) {
          const std::string label = name + " D=" + std::to_string(d) +
                                    " N=" + std::to_string(n) + " threads=" +
                                    std::to_string(threads);
          PlanPrediction pred;
          ASSERT_NO_THROW(pred = predict_step(plan, prof, threads)) << label;
          EXPECT_EQ(pred.timeline.all_intervals().size(), plan.tasks.size())
              << label;
          EXPECT_GT(pred.makespan, 0.0) << label;
          ++shapes;
        }
      }
  }
  EXPECT_EQ(shapes, 120);
}

// --- Round-trip exactness -------------------------------------------------

// Simulated timeline -> fit -> replay the exact plan: the fitted means ARE
// the simulated costs (each bucket is constant per stage), the plan shares
// the simulator's structure, and one thread per lane removes any
// concurrency cap — so the predicted makespan equals pipe_makespan to
// floating-point noise.
TEST(CalibrationRoundTrip, FusedScheduleExact) {
  ScheduleParams p;
  p.n_stages = 4;
  p.n_micro = 8;
  const ScheduleSpec spec = build_schedule("1f1b", p);

  StepCosts costs;
  costs.t_forward = 1.0;
  costs.t_backward = 2.0;
  costs.stage_forward_scale = {1.0, 1.5, 0.75, 1.25};
  costs.stage_backward_scale = {1.0, 0.9, 1.1, 1.3};
  const auto sim = simulate_step(spec, costs);

  CalibrationAccumulator acc(4);
  acc.ingest(sim.timeline);
  EXPECT_EQ(acc.steps_ingested(), 1u);
  const CalibratedCosts prof = acc.fit(/*n_threads=*/4);

  for (int s = 0; s < 4; ++s) {
    EXPECT_NEAR(prof.mean(WorkKind::kForward, s), costs.forward_cost(s),
                1e-12)
        << "stage " << s;
    EXPECT_NEAR(prof.fused_backward(s), costs.backward_cost(s), 1e-12)
        << "stage " << s;
  }
  EXPECT_EQ(prof.t_handoff, 0.0);  // the simulation ran with t_p2p = 0

  const auto pred = predict_step(plan_of(spec), prof, /*n_threads=*/4);
  EXPECT_NEAR(pred.makespan, sim.pipe_makespan, 1e-9 * sim.pipe_makespan);
}

TEST(CalibrationRoundTrip, ZeroBubbleSplitExact) {
  ScheduleParams p;
  p.n_stages = 4;
  p.n_micro = 8;
  const ScheduleSpec spec = build_schedule("zb-h1", p);
  ASSERT_TRUE(spec.split_backward);

  StepCosts costs;
  costs.t_forward = 1.0;
  costs.t_backward = 2.0;
  costs.backward_w_fraction = 0.375;
  const auto sim = simulate_step(spec, costs);

  CalibrationAccumulator acc(4);
  acc.ingest(sim.timeline);
  const CalibratedCosts prof = acc.fit(4);

  // The split was auto-detected and the fitted fraction is the one the
  // simulation executed, not the 0.5 prior.
  EXPECT_NEAR(prof.backward_w_fraction, 0.375, 1e-12);
  for (int s = 0; s < 4; ++s) {
    EXPECT_NEAR(prof.split_backward_b(s), costs.backward_b_cost(s), 1e-12);
    EXPECT_NEAR(prof.split_backward_w(s), costs.backward_w_cost(s), 1e-12);
    // Fused reconstruction: B + W sums back to the fused cost.
    EXPECT_NEAR(prof.fused_backward(s), costs.backward_cost(s), 1e-12);
  }

  const auto pred = predict_step(plan_of(spec), prof, 4);
  EXPECT_NEAR(pred.makespan, sim.pipe_makespan, 1e-9 * sim.pipe_makespan);
}

// A fused trace and a split trace in ONE accumulator: both readings fit.
TEST(CalibrationRoundTrip, MixedFusedAndSplitIngest) {
  ScheduleParams p;
  p.n_stages = 2;
  p.n_micro = 4;
  StepCosts costs;
  costs.t_forward = 1.0;
  costs.t_backward = 2.0;
  costs.backward_w_fraction = 0.25;
  CalibrationAccumulator acc(2);
  acc.ingest(simulate_step(build_schedule("1f1b", p), costs).timeline);
  acc.ingest(simulate_step(build_schedule("zb-h1", p), costs).timeline);
  const CalibratedCosts prof = acc.fit(2);
  for (int s = 0; s < 2; ++s) {
    EXPECT_NEAR(prof.mean(WorkKind::kBackward, s), 2.0, 1e-12);
    EXPECT_NEAR(prof.mean(WorkKind::kBackward, s, true), 1.5, 1e-12);
    EXPECT_NEAR(prof.mean(WorkKind::kBackwardWeight, s), 0.5, 1e-12);
  }
  EXPECT_NEAR(prof.backward_w_fraction, 0.25, 1e-12);
}

// --- Profile artifact (JSON) ----------------------------------------------

TEST(CalibrationProfile, JsonWritesEveryFieldExactly) {
  CalibratedCosts a = synthetic_profile();
  a.residual_scale = 1.2345;
  const std::string json = a.to_json();
  EXPECT_NE(json.find("\"schema\": \"pf-calibrated-costs-v1\""),
            std::string::npos);
  // The numbers after `"key": ` (a scalar, or an array's entries), read
  // back with strtod: %.17g round-trips every double exactly.
  auto numbers = [&](const std::string& key) {
    std::vector<double> out;
    const std::size_t at = json.find("\"" + key + "\": ");
    EXPECT_NE(at, std::string::npos) << key;
    if (at == std::string::npos) return out;
    const char* p = json.c_str() + at + key.size() + 4;
    const bool array = *p == '[';
    if (array) ++p;
    while (true) {
      char* end = nullptr;
      const double v = std::strtod(p, &end);
      if (end == p) break;
      out.push_back(v);
      if (!array || *end != ',') break;
      p = end + 1;
    }
    return out;
  };
  auto scalar = [&](const std::string& key) {
    const std::vector<double> v = numbers(key);
    EXPECT_EQ(v.size(), 1u) << key;
    return v.empty() ? -1.0 : v[0];
  };
  EXPECT_EQ(scalar("n_stages"), a.n_stages);
  EXPECT_EQ(scalar("n_threads"), a.n_threads);
  EXPECT_EQ(scalar("samples"), static_cast<double>(a.samples));
  EXPECT_EQ(scalar("residual_scale"), a.residual_scale);
  EXPECT_EQ(scalar("t_handoff"), a.t_handoff);
  EXPECT_EQ(scalar("backward_w_fraction"), a.backward_w_fraction);
  std::vector<double> n_factors;
  for (const auto& owners : a.kfac_factors.input_owner)
    n_factors.push_back(static_cast<double>(owners.size()));
  EXPECT_EQ(numbers("n_factors"), n_factors);
  for (const CostRow& row : kCostRows) {
    std::vector<double> want;
    for (int s = 0; s < a.n_stages; ++s)
      want.push_back(a.mean(row.kind, s, row.split_b));
    EXPECT_EQ(numbers(row.name), want) << row.name;
  }
}

// The artifact's exact bytes: key names, key order and the %.17g numbers
// (1/3 and 0.4 show the full 17 digits). BENCH_autotune.json embeds this
// text, so a format change must show here and re-record that artifact.
TEST(CalibrationProfile, JsonGoldenBytes) {
  CalibratedCosts a = synthetic_profile();
  a.residual_scale = 1.0 / 3.0;
  const std::string expected = R"({
  "schema": "pf-calibrated-costs-v1",
  "n_stages": 4,
  "n_threads": 3,
  "residual_scale": 0.33333333333333331,
  "t_handoff": 0.0001,
  "backward_w_fraction": 0.40000000000000002,
  "samples": 123,
  "n_factors": [6, 6, 6, 6],
  "t_forward": [0.001, 0.0015, 0.00075000000000000002, 0.00125],
  "t_backward": [0.002, 0.0018, 0.0022000000000000001, 0.0025999999999999999],
  "t_backward_b": [0.0011999999999999999, 0.0011000000000000001, 0.0012999999999999999, 0.0016000000000000001],
  "t_backward_w": [0.00080000000000000004, 0.00069999999999999999, 0.00089999999999999998, 0.001],
  "t_curvature_a": [0.0001, 0.00012, 9.0000000000000006e-05, 0.00011],
  "t_curvature_b": [0.0001, 0.0001, 0.0001, 0.0001],
  "t_commit": [2.0000000000000002e-05, 2.0000000000000002e-05, 2.0000000000000002e-05, 2.0000000000000002e-05],
  "t_inversion_a": [0.00029999999999999997, 0.00029999999999999997, 0.00029999999999999997, 0.00029999999999999997],
  "t_inversion_b": [0.00029999999999999997, 0.00035, 0.00025000000000000001, 0.00029999999999999997],
  "t_precondition": [5.0000000000000002e-05, 5.0000000000000002e-05, 5.0000000000000002e-05, 5.0000000000000002e-05],
  "t_grad_final": [9.9999999999999995e-07, 9.9999999999999995e-07, 9.9999999999999995e-07, 9.9999999999999995e-07],
  "t_optimizer": [4.0000000000000003e-05, 4.0000000000000003e-05, 4.0000000000000003e-05, 4.0000000000000003e-05],
  "end": 0
})";
  EXPECT_EQ(a.to_json(), expected);
}

// --- Autotuner ------------------------------------------------------------

TEST(Autotune, RankCandidatesIsDeterministic) {
  std::map<int, CalibratedCosts> profiles;
  profiles[4] = synthetic_profile();
  AutotuneOptions o;
  o.n_devices = 4;
  o.n_micro = 8;
  o.micro_batch_size = 8;
  o.inverse_interval = 3;

  const auto r1 = rank_candidates(profiles, o);
  const auto r2 = rank_candidates(profiles, o);
  ASSERT_EQ(r1.size(), r2.size());
  // Every registered schedule appears exactly once (one stage/micro point).
  EXPECT_EQ(r1.size(), list_schedules().size());
  for (std::size_t i = 0; i < r1.size(); ++i) {
    EXPECT_EQ(r1[i].schedule, r2[i].schedule);
    EXPECT_EQ(r1[i].params.n_stages, r2[i].params.n_stages);
    EXPECT_EQ(r1[i].params.n_micro, r2[i].params.n_micro);
    EXPECT_EQ(r1[i].viable, r2[i].viable);
    // Bitwise: the ranking must be a pure function of its inputs.
    EXPECT_EQ(r1[i].predicted_makespan, r2[i].predicted_makespan);
    EXPECT_EQ(r1[i].predicted_seconds_per_sequence,
              r2[i].predicted_seconds_per_sequence);
    if (!r1[i].viable) {
      EXPECT_FALSE(r1[i].skip_reason.empty()) << r1[i].schedule;
    } else {
      EXPECT_GT(r1[i].predicted_makespan, 0.0) << r1[i].schedule;
    }
  }
  // Viable candidates are ranked fastest-first and precede skipped ones.
  ASSERT_TRUE(r1.front().viable);
  for (std::size_t i = 1; i < r1.size(); ++i) {
    if (r1[i].viable) {
      EXPECT_TRUE(r1[i - 1].viable);
      EXPECT_GE(r1[i].predicted_seconds_per_sequence,
                r1[i - 1].predicted_seconds_per_sequence);
    }
  }
  // The ceiling cases are reported, not dropped: chimera-4 exceeds the
  // runtime's 2-pipeline limit, 1f1b-flushless has no synchronous step.
  for (const auto& c : r1) {
    if (c.schedule == "chimera-4" || c.schedule == "1f1b-flushless") {
      EXPECT_FALSE(c.viable) << c.schedule;
    }
  }
}

// The factor layout comes only from the calibrated runtime's partition. A
// profile without one (fit() alone never sets it) cannot plan a K-FAC
// step, so every candidate that would read it is skipped, and the reason
// names the model-stage count; none is planned from a guessed layout.
TEST(Autotune, ProfileWithoutFactorLayoutSkipsItsCandidates) {
  CalibratedCosts prof = synthetic_profile();
  prof.kfac_factors = KfacFactors();
  AutotuneOptions o;
  o.n_devices = 4;
  o.n_micro = 8;
  const auto ranked = rank_candidates({{4, prof}}, o);
  ASSERT_EQ(ranked.size(), list_schedules().size());
  int at_four = 0;
  for (const AutotuneCandidate& c : ranked) {
    EXPECT_FALSE(c.viable) << c.schedule;
    EXPECT_EQ(c.predicted_makespan, 0.0) << c.schedule;
    if (c.model_stages != 4) continue;
    ++at_four;
    EXPECT_EQ(c.skip_reason,
              "the calibrated profile at 4 model stages has no K-FAC factor "
              "layout")
        << c.schedule;
  }
  EXPECT_EQ(at_four, 4);  // 1f1b, gpipe, zb-h1, chimera
}

// Executed inversion counts per device pin the perf model's w multiplier
// (see run_perf_model's inversion-accounting note): every model stage is
// inverted exactly once per refresh by the device owning its pipeline-0
// copy. Chimera devices own one such stage (1x per-stage inversion work);
// interleaved devices own V chunks (Vx).
TEST(InversionAccounting, CountsMatchStageOwnership) {
  const auto cfg = small_bert(4);
  Corpus data(cfg);
  struct Case {
    const char* schedule;
    int n_stages;  // devices
    int expected_per_device;  // kInversionA intervals
  };
  // 4 layers -> 1 block per model stage -> 6 factors per stage.
  // chimera: D=4 devices, 4 model stages, each device inverts its one
  // pipeline-0 stage: 6. interleaved: D=2 devices, V=2 -> 4 model stages,
  // each device inverts both its chunks: 12.
  for (const Case c : {Case{"chimera", 4, 6}, Case{"interleaved-1f1b", 2, 12}}) {
    Rng rng(7);
    BertModel model(cfg, rng);
    PipelineRuntimeConfig pc;
    pc.schedule = c.schedule;
    pc.n_stages = c.n_stages;
    pc.n_micro = 4;
    pc.virtual_chunks = 2;
    pc.micro_batch_size = 2;
    pc.total_steps = 1;
    pc.workers = 2;
    pc.use_kfac = true;
    pc.kfac.curvature_interval = 1;
    pc.kfac.inverse_interval = 1;
    PipelineRuntime rt(model, data.batcher, pc);
    rt.step();
    const Timeline& tl = rt.last_executed_timeline();
    for (std::size_t d = 0; d < tl.n_devices(); ++d) {
      int inversions = 0;
      for (const Interval& iv : tl.device_intervals(d))
        if (iv.kind == WorkKind::kInversionA) ++inversions;
      EXPECT_EQ(inversions, c.expected_per_device)
          << c.schedule << " device " << d;
    }
  }
}

// End-to-end: burst-calibrate, rank, execute. The winner must have been
// measured and its calibrated prediction must land within a LOOSE band of
// the executed makespan (2x here — unit tests run on noisy schedulers; the
// 10% acceptance gate is bench/autotune_baseline's, with one retry, on the
// bench shape).
TEST(Autotune, ExecutedWinnerWithinLooseBandOfPrediction) {
  const auto cfg = small_bert(2);
  Corpus data(cfg);
  AutotuneOptions o;
  o.n_devices = 2;
  o.n_micro = 4;
  o.micro_batch_size = 2;
  o.workers = 2;
  o.burst_steps = 3;
  o.measure_steps = 3;
  o.inverse_interval = 2;
  o.schedules = {"1f1b", "gpipe"};

  const AutotuneReport rep = autotune(cfg, data.batcher, o);
  ASSERT_TRUE(rep.profiles.count(2));
  EXPECT_GT(rep.profiles.at(2).samples, 0u);
  EXPECT_GT(rep.profiles.at(2).residual_scale, 0.0);

  const AutotuneCandidate& w = rep.winner();
  EXPECT_TRUE(w.viable);
  ASSERT_GT(w.executed_makespan, 0.0);
  ASSERT_GT(w.predicted_makespan, 0.0);
  const double err = std::abs(w.predicted_makespan - w.executed_makespan) /
                     w.executed_makespan;
  EXPECT_LT(err, 2.0) << "predicted " << w.predicted_makespan << " executed "
                      << w.executed_makespan;
}

}  // namespace pf
