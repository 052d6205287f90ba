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
//   * the profile artifact — JSON serialize/parse round-trip plus a
//     truncation/mutation fuzz sweep that must always throw pf::Error,
//     never crash or mis-parse, and out-of-range fields rejected by name;
//   * autotuner determinism — rank_candidates() is a pure function of
//     (profiles, options);
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
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/task_executor.h"
#include "src/perfmodel/autotune.h"
#include "src/perfmodel/calibration.h"
#include "src/perfmodel/perf_model.h"
#include "src/pipeline/simulator.h"
#include "src/pipeline/step_plan.h"
#include "src/train/pipeline_runtime.h"

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

// A fully-populated synthetic profile at 4 model stages: every bucket
// positive so any plan is predictable from it.
CalibratedCosts synthetic_profile() {
  CalibratedCosts c;
  c.n_stages = 4;
  c.n_threads = 3;
  c.residual_scale = 1.0;
  c.t_handoff = 1e-4;
  c.backward_w_fraction = 0.4;
  c.samples = 123;
  c.n_factors = {6, 6, 6, 6};
  c.t_forward = {1.0e-3, 1.5e-3, 0.75e-3, 1.25e-3};
  c.t_backward = {2.0e-3, 1.8e-3, 2.2e-3, 2.6e-3};
  c.t_backward_b = {1.2e-3, 1.1e-3, 1.3e-3, 1.6e-3};
  c.t_backward_w = {0.8e-3, 0.7e-3, 0.9e-3, 1.0e-3};
  c.t_curvature_a = {1e-4, 1.2e-4, 0.9e-4, 1.1e-4};
  c.t_curvature_b = {1e-4, 1.0e-4, 1.0e-4, 1.0e-4};
  c.t_commit = {2e-5, 2e-5, 2e-5, 2e-5};
  c.t_inversion_a = {3e-4, 3e-4, 3e-4, 3e-4};
  c.t_inversion_b = {3e-4, 3.5e-4, 2.5e-4, 3e-4};
  c.t_precondition = {5e-5, 5e-5, 5e-5, 5e-5};
  c.t_grad_final = {1e-6, 1e-6, 1e-6, 1e-6};
  c.t_optimizer = {4e-5, 4e-5, 4e-5, 4e-5};
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
    for (std::vector<double>* v :
         {&unit.t_forward, &unit.t_backward, &unit.t_backward_b,
          &unit.t_backward_w, &unit.t_curvature_a, &unit.t_curvature_b,
          &unit.t_commit, &unit.t_inversion_a, &unit.t_inversion_b,
          &unit.t_precondition, &unit.t_grad_final, &unit.t_optimizer})
      v->assign(S, 1.0);
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
        for (std::vector<double>* v :
             {&prof.t_forward, &prof.t_backward, &prof.t_backward_b,
              &prof.t_backward_w, &prof.t_curvature_a, &prof.t_curvature_b,
              &prof.t_inversion_a, &prof.t_inversion_b, &prof.t_precondition})
          v->assign(S, 1e-3);
        for (std::vector<double>* v :
             {&prof.t_commit, &prof.t_grad_final, &prof.t_optimizer})
          v->assign(S, 0.0);
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
    EXPECT_NEAR(prof.t_forward[static_cast<std::size_t>(s)],
                costs.forward_cost(s), 1e-12)
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
    EXPECT_NEAR(prof.t_backward[static_cast<std::size_t>(s)], 2.0, 1e-12);
    EXPECT_NEAR(prof.t_backward_b[static_cast<std::size_t>(s)], 1.5, 1e-12);
    EXPECT_NEAR(prof.t_backward_w[static_cast<std::size_t>(s)], 0.5, 1e-12);
  }
  EXPECT_NEAR(prof.backward_w_fraction, 0.25, 1e-12);
}

// --- Profile artifact (JSON) ----------------------------------------------

TEST(CalibrationProfile, JsonRoundTrip) {
  CalibratedCosts a = synthetic_profile();
  a.residual_scale = 1.2345;
  const CalibratedCosts b = CalibratedCosts::from_json(a.to_json());
  EXPECT_EQ(b.n_stages, a.n_stages);
  EXPECT_EQ(b.n_threads, a.n_threads);
  EXPECT_EQ(b.samples, a.samples);
  EXPECT_DOUBLE_EQ(b.residual_scale, a.residual_scale);
  EXPECT_DOUBLE_EQ(b.t_handoff, a.t_handoff);
  EXPECT_DOUBLE_EQ(b.backward_w_fraction, a.backward_w_fraction);
  EXPECT_EQ(b.n_factors, a.n_factors);
  EXPECT_EQ(b.t_forward, a.t_forward);
  EXPECT_EQ(b.t_backward, a.t_backward);
  EXPECT_EQ(b.t_backward_b, a.t_backward_b);
  EXPECT_EQ(b.t_backward_w, a.t_backward_w);
  EXPECT_EQ(b.t_curvature_a, a.t_curvature_a);
  EXPECT_EQ(b.t_curvature_b, a.t_curvature_b);
  EXPECT_EQ(b.t_commit, a.t_commit);
  EXPECT_EQ(b.t_inversion_a, a.t_inversion_a);
  EXPECT_EQ(b.t_inversion_b, a.t_inversion_b);
  EXPECT_EQ(b.t_precondition, a.t_precondition);
  EXPECT_EQ(b.t_grad_final, a.t_grad_final);
  EXPECT_EQ(b.t_optimizer, a.t_optimizer);
}

TEST(CalibrationProfile, JsonRejectsMalformed) {
  const std::string good = synthetic_profile().to_json();
  // Hand-picked malformations.
  const std::vector<std::string> bad = {
      "",
      "{",
      "[1, 2]",
      "{}",
      "null",
      good + "x",                // trailing garbage
      good + " {}",              // second value
      "{\"schema\": \"other-schema\"}",
      "{\"schema\": \"pf-calibrated-costs-v1\"}",  // missing fields
  };
  for (const std::string& s : bad)
    EXPECT_THROW(CalibratedCosts::from_json(s), Error) << s;

  // Truncation fuzz: every strict prefix must throw, never crash or parse.
  for (std::size_t i = 0; i < good.size(); i += 7)
    EXPECT_THROW(CalibratedCosts::from_json(good.substr(0, i)), Error)
        << "prefix length " << i;

  // Structured mutations: wrong array size, non-finite number, bad stage
  // count.
  std::string wrong_size = good;
  const std::size_t pos = wrong_size.find("\"t_forward\": [");
  ASSERT_NE(pos, std::string::npos);
  wrong_size.erase(wrong_size.find(',', pos),
                   wrong_size.find(']', pos) - wrong_size.find(',', pos));
  EXPECT_THROW(CalibratedCosts::from_json(wrong_size), Error);

  std::string inf = good;
  const std::size_t rpos = inf.find("\"residual_scale\": ");
  ASSERT_NE(rpos, std::string::npos);
  inf.replace(rpos, std::string("\"residual_scale\": 1").size(),
              "\"residual_scale\": inf");
  EXPECT_THROW(CalibratedCosts::from_json(inf), Error);

  // Out-of-range values: each is rejected by an error naming its field.
  // `with` swaps a scalar field's value, or an array field's first entry.
  auto with = [&](const std::string& field, const std::string& value) {
    std::string json = good;
    std::size_t at = json.find("\"" + field + "\": ");
    EXPECT_NE(at, std::string::npos) << field;
    at += field.size() + 4;
    if (json[at] == '[') ++at;
    json.replace(at, json.find_first_of(",]", at) - at, value);
    return json;
  };
  EXPECT_EQ(CalibratedCosts::from_json(with("n_threads", "5")).n_threads, 5);
  const std::vector<std::pair<std::string, std::string>> out_of_range = {
      {"t_handoff", "-0.5"},          {"n_threads", "-7"},
      {"n_threads", "2.5"},           {"n_threads", "4294967296"},
      {"samples", "-1"},              {"samples", "0.5"},
      {"backward_w_fraction", "3"},   {"backward_w_fraction", "0"},
      {"t_optimizer", "-1e-3"},       {"n_factors", "-6"},
  };
  for (const auto& [field, value] : out_of_range) {
    try {
      CalibratedCosts::from_json(with(field, value));
      ADD_FAILURE() << field << " = " << value << " was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("\"" + field + "\""),
                std::string::npos)
          << field << " = " << value << ": " << e.what();
    }
  }
}

// --- StepCosts / perf-model plug-ins --------------------------------------

TEST(CalibrationProfile, ToStepCostsCarriesFittedShape) {
  const CalibratedCosts prof = synthetic_profile();
  const StepCosts sc = prof.to_step_costs();
  EXPECT_DOUBLE_EQ(sc.t_forward, prof.mean_forward());
  EXPECT_DOUBLE_EQ(sc.t_backward, prof.mean_backward());
  EXPECT_DOUBLE_EQ(sc.backward_w_fraction, prof.backward_w_fraction);
  EXPECT_DOUBLE_EQ(sc.t_p2p, prof.t_handoff);
  ASSERT_EQ(sc.stage_forward_scale.size(), 4u);
  for (int s = 0; s < 4; ++s) {
    EXPECT_NEAR(sc.t_forward * sc.stage_forward_scale[s],
                prof.t_forward[static_cast<std::size_t>(s)], 1e-15);
    EXPECT_NEAR(sc.t_backward * sc.stage_backward_scale[s],
                prof.fused_backward(s), 1e-15);
  }
}

TEST(PerfModelCalibrated, FittedCostsReplaceFlopModel) {
  const CalibratedCosts prof = synthetic_profile();
  PerfModelInput in;
  in.cfg = bert_base();
  in.hw = p100();
  in.schedule = "1f1b";
  in.depth = 4;
  in.n_micro = 8;
  in.b_micro = 8;
  in.calibrated = &prof;
  const PerfModelResult r = run_perf_model(in);
  EXPECT_DOUBLE_EQ(r.t_forward, prof.mean_forward());
  EXPECT_DOUBLE_EQ(r.t_backward, prof.mean_backward());
  // Per-stage K-FAC terms: 6 factors/stage, uniform profile -> the means
  // are the per-stage totals.
  EXPECT_NEAR(r.t_curvature,
              6.0 * (prof.t_curvature_a[0] + prof.t_curvature_b[0]) / 4.0 +
                  6.0 * (prof.t_curvature_a[1] + prof.t_curvature_b[1]) / 4.0 +
                  6.0 * (prof.t_curvature_a[2] + prof.t_curvature_b[2]) / 4.0 +
                  6.0 * (prof.t_curvature_a[3] + prof.t_curvature_b[3]) / 4.0,
              1e-15);
  EXPECT_GT(r.t_inversion, 0.0);
  EXPECT_GT(r.throughput_pipefisher, 0.0);

  // Stage-count mismatch is rejected, not silently mis-scaled.
  in.depth = 2;
  EXPECT_THROW(run_perf_model(in), Error);
}

// --- Autotuner ------------------------------------------------------------

TEST(Autotune, RankCandidatesIsDeterministic) {
  std::map<int, CalibratedCosts> profiles;
  profiles[4] = synthetic_profile();
  AutotuneOptions o;
  o.n_devices = 4;
  o.n_micro = 8;
  o.micro_batch_size = 8;
  o.use_kfac = true;
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
    if (c.schedule == "chimera-4" || c.schedule == "1f1b-flushless")
      EXPECT_FALSE(c.viable) << c.schedule;
  }
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
