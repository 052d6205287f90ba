// Zero-bubble ZB-H1 contracts (Qi et al. 2023, on top of PipeFisher's
// runtime): the B/W split of Linear::backward is BITWISE identical to the
// fused pass; the zb-h1 schedule floats one W op per backward through the
// simulator without ever displacing the critical path; the executable
// runtime keeps the serial-Trainer bitwise contract across stages and
// worker counts; and the flushless streaming path (run_flushless) runs
// the configured schedule's stream plan, is bitwise invariant to workers
// and shows PipeDream-style weight staleness in its executed timeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <tuple>

#include "src/common/strings.h"
#include "src/optim/lamb.h"
#include "src/pipeline/gpipe.h"
#include "src/pipeline/simulator.h"
#include "src/pipeline/zero_bubble.h"
#include "src/train/pipeline_runtime.h"

namespace pf {
namespace {

// --- Shared fixtures (mirrors tests/test_pipeline_runtime.cpp) ------------

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

struct RunResult {
  std::vector<double> losses;
  std::vector<std::vector<double>> params;
};

RunResult snapshot(BertModel& model, std::vector<double> losses) {
  RunResult r;
  r.losses = std::move(losses);
  for (Param* p : model.params()) {
    std::vector<double> w(p->w.data(), p->w.data() + p->w.size());
    r.params.push_back(std::move(w));
  }
  return r;
}

RunResult serial_reference(const BertConfig& cfg, int n_micro,
                           std::size_t micro_batch, std::size_t steps,
                           bool use_kfac) {
  Rng rng(7);
  BertModel model(cfg, rng);
  Corpus data(cfg);
  TrainerConfig tc;
  tc.batch_size = micro_batch;
  tc.accumulation_steps = static_cast<std::size_t>(n_micro);
  tc.total_steps = steps;
  tc.schedule = PolyWarmupSchedule(1e-2, 0, steps);
  std::unique_ptr<Optimizer> opt;
  if (use_kfac) {
    KfacOptimizerOptions o;
    o.inverse_interval = 3;
    o.per_micro_curvature = true;
    opt = std::make_unique<KfacOptimizer>(model.kfac_linears(),
                                          std::make_unique<Lamb>(), o);
  } else {
    opt = std::make_unique<Lamb>();
  }
  Trainer trainer(model, data.batcher, std::move(opt), tc);
  const auto trace = trainer.run();
  return snapshot(model, trace.loss);
}

PipelineRuntimeConfig runtime_config(const std::string& schedule, int stages,
                                     int n_micro, std::size_t micro_batch,
                                     std::size_t steps, bool use_kfac,
                                     int workers, int stage_threads) {
  PipelineRuntimeConfig pc;
  pc.schedule = schedule;
  pc.n_stages = stages;
  pc.n_micro = n_micro;
  pc.micro_batch_size = micro_batch;
  pc.total_steps = steps;
  pc.lr = PolyWarmupSchedule(1e-2, 0, steps);
  pc.workers = workers;
  pc.stage_threads = stage_threads;
  pc.use_kfac = use_kfac;
  pc.kfac.inverse_interval = 3;
  return pc;
}

RunResult pipeline_run(const BertConfig& cfg, const PipelineRuntimeConfig& pc) {
  Rng rng(7);
  BertModel model(cfg, rng);
  Corpus data(cfg);
  PipelineRuntime rt(model, data.batcher, pc);
  const auto trace = rt.run();
  return snapshot(model, trace.loss);
}

RunResult flushless_run(const BertConfig& cfg,
                        const PipelineRuntimeConfig& pc) {
  Rng rng(7);
  BertModel model(cfg, rng);
  Corpus data(cfg);
  PipelineRuntime rt(model, data.batcher, pc);
  const auto trace = rt.run_flushless();
  return snapshot(model, trace.loss);
}

void expect_bitwise_equal(const RunResult& a, const RunResult& b,
                          const std::string& label) {
  ASSERT_EQ(a.losses.size(), b.losses.size()) << label;
  for (std::size_t i = 0; i < a.losses.size(); ++i)
    ASSERT_EQ(a.losses[i], b.losses[i]) << label << " loss step " << i;
  ASSERT_EQ(a.params.size(), b.params.size()) << label;
  for (std::size_t p = 0; p < a.params.size(); ++p) {
    ASSERT_EQ(a.params[p].size(), b.params[p].size()) << label;
    for (std::size_t i = 0; i < a.params[p].size(); ++i)
      ASSERT_EQ(a.params[p][i], b.params[p][i])
          << label << " param " << p << " elem " << i;
  }
}

// --- Layer-level split: backward_dx + backward_dw == backward -------------

Matrix test_input(std::size_t rows, std::size_t cols, std::uint64_t seed) {
  Rng rng(seed);
  return Matrix::randn(rows, cols, rng, 0.7);
}

void expect_grads_equal(Linear& a, Linear& b, const std::string& label) {
  for (std::size_t p = 0; p < 2; ++p) {
    Param& pa = *a.params()[p];
    Param& pb = *b.params()[p];
    ASSERT_EQ(pa.g.size(), pb.g.size()) << label;
    for (std::size_t i = 0; i < pa.g.size(); ++i)
      ASSERT_EQ(pa.g.data()[i], pb.g.data()[i])
          << label << " " << pa.name << " elem " << i;
  }
}

TEST(LinearSplitBackward, SplitEqualsFusedBitwise) {
  Rng rng_a(11), rng_b(11);
  Linear fused(6, 5, rng_a, "lin");
  Linear split(6, 5, rng_b, "lin");
  // Two micro-batches without zeroing in between: the split path must
  // reproduce the fused accumulation order exactly (dW of micro 0 folds in
  // before dW of micro 1), not just the same sum.
  for (int micro = 0; micro < 2; ++micro) {
    const Matrix x = test_input(8, 6, 100 + static_cast<std::uint64_t>(micro));
    const Matrix dy = test_input(8, 5, 200 + static_cast<std::uint64_t>(micro));
    const Matrix dx_fused = [&] {
      fused.forward(x);
      return fused.backward(dy);
    }();
    split.forward(x);
    const Matrix dx_split = split.backward_dx(dy);
    split.backward_dw();
    ASSERT_EQ(dx_fused.rows(), dx_split.rows());
    ASSERT_EQ(dx_fused.cols(), dx_split.cols());
    for (std::size_t i = 0; i < dx_fused.size(); ++i)
      ASSERT_EQ(dx_fused.data()[i], dx_split.data()[i])
          << "dx elem " << i << " micro " << micro;
    expect_grads_equal(fused, split, format("micro %d", micro));
  }
}

TEST(LinearSplitBackward, BPassSkipsTheWeightGradient) {
  Rng rng(13);
  Linear lin(4, 3, rng, "lin");
  lin.forward(test_input(5, 4, 1));
  lin.backward_dx(test_input(5, 3, 2));
  for (std::size_t i = 0; i < lin.weight().g.size(); ++i)
    ASSERT_EQ(lin.weight().g.data()[i], 0.0) << "dW elem " << i;
  // ...but the K-FAC caches are complete: the B pass captured e_l.
  EXPECT_TRUE(lin.has_kfac_caches());
  lin.backward_dw();
  double nonzero = 0.0;
  for (std::size_t i = 0; i < lin.weight().g.size(); ++i)
    nonzero += std::abs(lin.weight().g.data()[i]);
  EXPECT_GT(nonzero, 0.0);
}

TEST(LinearSplitBackward, ExternalizedCacheMatchesLiveCaches) {
  Rng rng_a(17), rng_b(17);
  Linear live(6, 5, rng_a, "lin");
  Linear stashed(6, 5, rng_b, "lin");
  const Matrix x = test_input(7, 6, 3);
  const Matrix dy = test_input(7, 5, 4);
  live.forward(x);
  live.backward_dx(dy);
  live.backward_dw();
  stashed.forward(x);
  stashed.backward_dx(dy);
  // The runtime's deferred-dW path: stash moves the caches out, the W task
  // later replays them through the Cache overload.
  Linear::Cache c = stashed.save_cache();
  EXPECT_FALSE(stashed.has_kfac_caches());
  stashed.backward_dw(c);
  expect_grads_equal(live, stashed, "cache overload");
}

// --- Schedule + simulator -------------------------------------------------

TEST(ZeroBubble, SpecFloatsWOpsOutsidePrograms) {
  const ScheduleSpec spec = make_zb_h1(4, 8);
  EXPECT_EQ(spec.name, "zb-h1");
  EXPECT_TRUE(spec.split_backward);
  int n_w = 0;
  for (const PipeOp& op : spec.all_ops())
    if (op.type == OpType::kBackwardWeight) ++n_w;
  EXPECT_EQ(n_w, 4 * 8);  // one per (stage, micro)
  for (const auto& program : spec.programs)
    for (const PipeOp& op : program)
      EXPECT_NE(op.type, OpType::kBackwardWeight)
          << "W ops float; they never appear in a static program";
}

TEST(ZeroBubble, SplitCostsSumToFusedBackward) {
  StepCosts costs;
  costs.t_forward = 1.0;
  costs.t_backward = 2.0;
  EXPECT_DOUBLE_EQ(costs.backward_b_cost(0) + costs.backward_w_cost(0),
                   costs.backward_cost(0));
  costs.backward_w_fraction = 0.3;
  costs.stage_forward_scale = {1.0, 2.0};
  costs.stage_backward_scale = {1.0, 2.0};
  EXPECT_DOUBLE_EQ(costs.backward_b_cost(1) + costs.backward_w_cost(1),
                   costs.backward_cost(1));
}

TEST(ZeroBubble, SimulatorExecutesEveryWOpAndBeatsOneFOneB) {
  StepCosts costs;
  costs.t_forward = 1.0;
  costs.t_backward = 2.0;
  for (int d : {2, 4, 8}) {
    for (int n : {2, 4, 8, 16}) {
      ScheduleParams p;
      p.n_stages = d;
      p.n_micro = n;
      const auto zb = simulate_step(build_schedule("zb-h1", p), costs);
      const auto ofob = simulate_step(build_schedule("1f1b", p), costs);
      EXPECT_LT(zb.pipe_makespan, ofob.pipe_makespan)
          << "D=" << d << " N=" << n;
      for (int s = 0; s < d; ++s)
        for (int m = 0; m < n; ++m) {
          const PipeOp w{OpType::kBackwardWeight, 0, s, m};
          ASSERT_TRUE(zb.has_op(w)) << "D=" << d << " N=" << n << " W(" << s
                                    << "," << m << ") never executed";
          const PipeOp b{OpType::kBackward, 0, s, m};
          EXPECT_GE(zb.op_start(w), zb.op_end(b) - 1e-12)
              << "W(" << s << "," << m << ") started before its own B pass";
          if (m > 0) {
            const PipeOp wp{OpType::kBackwardWeight, 0, s, m - 1};
            EXPECT_GE(zb.op_start(w), zb.op_end(wp) - 1e-12)
                << "per-stage W chain must run ascending micros";
          }
        }
    }
  }
}

TEST(ZeroBubble, RejectsDynamicOrderCombination) {
  ScheduleParams p;
  p.n_stages = 4;
  p.n_micro = 4;
  ScheduleSpec spec = build_schedule("chimera", p);
  spec.split_backward = true;
  StepCosts costs;
  EXPECT_THROW(simulate_step(spec, costs), Error);
}

// --- The executable runtime keeps the bitwise contract --------------------

TEST(ZeroBubbleRuntime, LambBitwiseEqualsSerialAcrossStagesAndWorkers) {
  const auto cfg = small_bert(4);
  const int n_micro = 4;
  const std::size_t micro_batch = 4, steps = 4;
  const auto ref = serial_reference(cfg, n_micro, micro_batch, steps, false);
  for (const int stages : {2, 4}) {
    for (const int workers : {0, 1, 2, 4}) {
      const auto pr = pipeline_run(
          cfg, runtime_config("zb-h1", stages, n_micro, micro_batch, steps,
                              false, workers, /*stage_threads=*/1));
      expect_bitwise_equal(ref, pr,
                           format("zb-h1 D=%d workers=%d", stages, workers));
    }
  }
}

TEST(ZeroBubbleRuntime, KfacBitwiseEqualsSerialAcrossStages) {
  const auto cfg = small_bert(4);
  const int n_micro = 4;
  const std::size_t micro_batch = 4, steps = 5;
  const auto ref = serial_reference(cfg, n_micro, micro_batch, steps, true);
  for (const int stages : {2, 4}) {
    const auto pr = pipeline_run(
        cfg, runtime_config("zb-h1", stages, n_micro, micro_batch, steps,
                            true, /*workers=*/2, /*stage_threads=*/1));
    expect_bitwise_equal(ref, pr, format("zb-h1 kfac D=%d", stages));
  }
}

// --- Flushless streaming --------------------------------------------------

TEST(FlushlessRuntime, BitwiseInvariantToWorkers) {
  const auto cfg = small_bert(4);
  const int n_micro = 4;
  const std::size_t micro_batch = 4, steps = 4;
  const auto pc0 = runtime_config("1f1b-flushless", 4, n_micro, micro_batch,
                                  steps, false, /*workers=*/0, 1);
  const auto ref = flushless_run(cfg, pc0);
  ASSERT_EQ(ref.losses.size(), steps);
  for (const int workers : {1, 2, 4}) {
    auto pc = pc0;
    pc.workers = workers;
    expect_bitwise_equal(ref, flushless_run(cfg, pc),
                         format("flushless workers=%d", workers));
  }
}

// Weight versions of a stream, read from its executed timeline:
// [stage][global micro] = updates of that stage its lane had run when the
// micro's forward (or backward) started.
struct StreamVersions {
  std::vector<std::vector<int>> fwd, bwd;
};

StreamVersions stream_versions(const Timeline& tl, int stages, int G) {
  StreamVersions v;
  v.fwd.assign(static_cast<std::size_t>(stages),
               std::vector<int>(static_cast<std::size_t>(G), -1));
  v.bwd = v.fwd;
  for (std::size_t d = 0; d < tl.n_devices(); ++d) {
    std::vector<int> applied(static_cast<std::size_t>(stages), 0);
    for (const Interval& iv : tl.device_intervals(d)) {
      const auto s = static_cast<std::size_t>(iv.stage);
      if (iv.kind == WorkKind::kOptimizerUpdate) ++applied[s];
      if (iv.kind == WorkKind::kForward)
        v.fwd[s][static_cast<std::size_t>(iv.micro)] = applied[s];
      if (iv.kind == WorkKind::kBackward)
        v.bwd[s][static_cast<std::size_t>(iv.micro)] = applied[s];
    }
  }
  return v;
}

TEST(FlushlessRuntime, TimelineExposesBoundedStaleness) {
  const auto cfg = small_bert(4);
  const int stages = 4, n_micro = 4;
  const std::size_t micro_batch = 4, steps = 3;
  Rng rng(7);
  BertModel model(cfg, rng);
  Corpus data(cfg);
  const auto pc = runtime_config("1f1b-flushless", stages, n_micro,
                                 micro_batch, steps, false, 2, 1);
  PipelineRuntime rt(model, data.batcher, pc);
  rt.run_flushless();
  const int G = n_micro * static_cast<int>(steps);
  const auto [fwd, bwd] =
      stream_versions(rt.last_executed_timeline(), stages, G);
  int max_staleness = 0;
  for (int s = 0; s < stages; ++s) {
    for (int g = 0; g < G; ++g) {
      // Every op ran once; a micro's backward never sees an OLDER weight
      // version than its forward, versions only grow along the stream, and
      // no op can see more updates than its own stage has closed out by
      // then.
      ASSERT_GE(fwd[s][g], 0) << "s=" << s << " g=" << g;
      EXPECT_GE(bwd[s][g], fwd[s][g]) << "s=" << s << " g=" << g;
      EXPECT_LE(bwd[s][g], g / n_micro + 1) << "s=" << s << " g=" << g;
      if (g > 0) {
        EXPECT_GE(fwd[s][g], fwd[s][g - 1]) << "s=" << s << " g=" << g;
        EXPECT_GE(bwd[s][g], bwd[s][g - 1]) << "s=" << s << " g=" << g;
      }
      max_staleness = std::max(max_staleness, bwd[s][g] - fwd[s][g]);
    }
    // The last stage runs forward and backward back to back: never stale.
    if (s == stages - 1)
      for (int g = 0; g < G; ++g) EXPECT_EQ(bwd[s][g], fwd[s][g]) << g;
  }
  // Early stages forward ahead of their inline updates (PipeDream's whole
  // point) — with D=4 and 3 steps, some micro must train on stale weights.
  EXPECT_GT(max_staleness, 0);
  // A runtime streams exactly once.
  EXPECT_THROW(rt.run_flushless(), Error);
  EXPECT_EQ(rt.steps_taken(), steps);
}

// A flushless schedule registered through the extension point: GPipe's
// program, streamed without flushes.
ScheduleSpec gpipe_flushless_factory(const ScheduleParams& p) {
  auto spec = make_gpipe(p.n_stages, p.n_micro);
  spec.name = "test-gpipe-flushless";
  return spec;
}

TEST(FlushlessRuntime, StreamsTheConfiguredSchedule) {
  ScheduleTraits t;
  t.name = "test-gpipe-flushless";
  t.description = "gpipe program streamed without flushes (test suite)";
  t.flush = false;
  t.c_f = {1.0, 1.0, -1.0};
  t.c_b = {1.0, 1.0, -1.0};
  // Registration is process-global and permanent; stay idempotent so the
  // suite survives --gtest_repeat.
  if (!schedule_registered(t.name))
    register_schedule(t, &gpipe_flushless_factory);

  const auto cfg = small_bert(4);
  const int stages = 2, n_micro = 2, steps = 3;
  Rng rng(7);
  BertModel model(cfg, rng);
  Corpus data(cfg);
  PipelineRuntime rt(model, data.batcher,
                     runtime_config(t.name, stages, n_micro, /*micro_batch=*/4,
                                    steps, false, /*workers=*/2, 1));
  rt.run_flushless();
  const Timeline& tl = rt.last_executed_timeline();
  ASSERT_EQ(tl.n_devices(), static_cast<std::size_t>(stages));

  // Each lane ran the backward-normalized registered program over every
  // step's micros, with its stage's sync-grad and update after each
  // step-closing backward.
  auto programs = make_gpipe(stages, n_micro * steps).programs;
  normalize_backward_order(programs);
  using Slot = std::tuple<WorkKind, int, int>;  // kind, stage, micro
  for (int d = 0; d < stages; ++d) {
    std::vector<Slot> want, got;
    for (const PipeOp& op : programs[static_cast<std::size_t>(d)]) {
      const bool fwd = op.type == OpType::kForward;
      want.emplace_back(fwd ? WorkKind::kForward : WorkKind::kBackward,
                        op.stage, op.micro);
      if (!fwd && (op.micro + 1) % n_micro == 0) {
        want.emplace_back(WorkKind::kSyncGrad, op.stage, -1);
        want.emplace_back(WorkKind::kOptimizerUpdate, op.stage, -1);
      }
    }
    for (const Interval& iv :
         tl.device_intervals(static_cast<std::size_t>(d)))
      got.emplace_back(iv.kind, iv.stage, iv.micro);
    EXPECT_EQ(got, want) << "lane " << d;
  }
  // GPipe order runs every forward before the first update: no forward
  // sees an updated weight.
  const auto versions = stream_versions(tl, stages, n_micro * steps);
  for (int s = 0; s < stages; ++s)
    for (const int v : versions.fwd[static_cast<std::size_t>(s)])
      EXPECT_EQ(v, 0) << "stage " << s;
}

}  // namespace
}  // namespace pf
