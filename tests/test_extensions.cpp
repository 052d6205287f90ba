// Tests for the paper's §5 extensions: the interleaved-1F1B schedule,
// Shampoo/SAM bubble work, and gradient accumulation.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/common/check.h"
#include "src/core/extra_work.h"
#include "src/core/pipefisher.h"
#include "src/optim/lamb.h"
#include "src/pipeline/interleaved_1f1b.h"
#include "src/pipeline/one_f_one_b.h"
#include "src/trace/ascii_plot.h"
#include "src/train/trainer.h"

namespace pf {
namespace {

TEST(Interleaved1F1B, SpecShape) {
  const auto spec = make_interleaved_1f1b(4, 2, 8);
  EXPECT_EQ(spec.n_stages, 8);
  EXPECT_EQ(spec.n_devices, 4);
  // Device 1 owns virtual stages 1 and 5.
  const auto owned = spec.stages_of_device(1);
  ASSERT_EQ(owned.size(), 2u);
  EXPECT_EQ(owned[0].second, 1);
  EXPECT_EQ(owned[1].second, 5);
}

TEST(Interleaved1F1B, SimulatesWithoutDeadlockAndBeatsPlain1F1B) {
  StepCosts c;
  c.t_forward = 0.5;  // per virtual chunk: half a plain stage
  c.t_backward = 1.0;
  const auto inter = simulate_step(make_interleaved_1f1b(4, 2, 8), c);
  StepCosts plain;
  plain.t_forward = 1.0;
  plain.t_backward = 2.0;
  const auto base = simulate_step(make_1f1b(4, 8), plain);
  // Same total useful work per device; interleaving shrinks the bubble.
  const double util_inter =
      inter.timeline.utilization(0.0, inter.pipe_makespan);
  const double util_base = base.timeline.utilization(0.0, base.pipe_makespan);
  EXPECT_GT(util_inter, util_base);
}

TEST(Interleaved1F1B, WorksWithPipeFisher) {
  PipeFisherConfig cfg;
  cfg.schedule = "interleaved-1f1b";
  cfg.arch = bert_base();
  cfg.hw = p100();
  cfg.n_stages = 4;
  cfg.blocks_per_stage = 1;
  cfg.n_micro = 8;
  cfg.b_micro = 16;
  const auto rep = run_pipefisher(cfg);
  EXPECT_GT(rep.utilization, rep.utilization_baseline);
  EXPECT_GE(rep.refresh_interval_steps, 1);
}

TEST(ExtraWork, ShampooTasksHaveEigAfterStats) {
  PipeFisherConfig cfg;
  cfg.schedule = "gpipe";
  cfg.arch = bert_base();
  cfg.hw = p100();
  cfg.n_stages = 4;
  cfg.blocks_per_stage = 1;
  cfg.n_micro = 4;
  cfg.b_micro = 32;
  const auto spec = build_schedule(cfg);
  const auto step = simulate_step(spec, derive_step_costs(cfg, false));
  const CostModel cm(cfg.hw);
  const auto tasks = make_shampoo_tasks(spec, step, cm, cfg.arch, 1, 32);
  // Per stage: 6 linears × (4 stats + 2 eigs) = 36; 4 stages = 144.
  EXPECT_EQ(tasks.size(), 144u);
  for (const auto& t : tasks) {
    if (t.kind == WorkKind::kEigendecomposition) {
      EXPECT_EQ(t.deps.size(), 4u);
      EXPECT_TRUE(t.splittable);  // §5: eig must be divisible to fit bubbles
    }
  }
  const auto res = assign_to_bubbles(step.timeline, step.step_time, tasks);
  EXPECT_GT(res.utilization_after, res.utilization_before);
}

TEST(ExtraWork, SamDoublesTheWork) {
  PipeFisherConfig cfg;
  cfg.schedule = "gpipe";
  cfg.arch = bert_base();
  cfg.hw = p100();
  cfg.n_stages = 4;
  cfg.blocks_per_stage = 3;
  cfg.n_micro = 4;
  cfg.b_micro = 32;
  const auto spec = build_schedule(cfg);
  const auto step = simulate_step(spec, derive_step_costs(cfg, false));
  const CostModel cm(cfg.hw);
  const auto tasks = make_sam_tasks(spec, step, cm, cfg.arch, 3, 32);
  EXPECT_EQ(tasks.size(), 2u * 4u * 4u);  // fwd+bwd × stages × micros
  // Total SAM seconds equal the pipeline's useful work (twice the work of
  // SGD, paper §5).
  double sam_work = 0.0;
  for (std::size_t d = 0; d < 4; ++d)
    sam_work += total_task_seconds(tasks, d);
  double useful = 0.0;
  for (std::size_t d = 0; d < 4; ++d)
    useful += step.timeline.busy_time(d, 0.0, step.pipe_makespan);
  EXPECT_NEAR(sam_work / useful, 1.0, 0.05);
  const auto res = assign_to_bubbles(step.timeline, step.step_time, tasks);
  // The atomic (non-splittable) passes pack less tightly than K-FAC's
  // fine-grained factor tasks, but still lift utilization substantially.
  EXPECT_GT(res.utilization_after, 0.70);
  EXPECT_GT(res.utilization_after, res.utilization_before + 0.15);
}

TEST(Trainer, GradientAccumulationMatchesLargerBatchScale) {
  // Accumulating k sub-batches averages gradients; a single optimizer step
  // is taken. Verify the step count and that training still learns.
  BertConfig cfg;
  cfg.vocab = 36;
  cfg.d_model = 16;
  cfg.d_ff = 32;
  cfg.n_heads = 2;
  cfg.n_layers = 1;
  cfg.seq_len = 12;
  Rng rng(23);
  BertModel model(cfg, rng);
  CorpusConfig cc;
  cc.vocab = cfg.vocab;
  SyntheticCorpus corpus(cc);
  MlmBatcherConfig bc;
  bc.seq_len = cfg.seq_len;
  MlmBatcher batcher(corpus, bc);
  TrainerConfig tc;
  tc.batch_size = 4;
  tc.accumulation_steps = 4;
  tc.total_steps = 60;
  tc.schedule = PolyWarmupSchedule(3e-3, 5, 60);
  Trainer trainer(model, batcher, std::make_unique<Lamb>(), tc);
  const auto trace = trainer.run();
  EXPECT_EQ(trace.loss.size(), 60u);
  EXPECT_LT(trace.loss.back(), trace.loss.front());
}

TEST(AsciiPlot, RendersSeriesAndLegend) {
  std::vector<double> a = {3, 2.5, 2, 1.5, 1};
  std::vector<double> b = {3, 2, 1.2, 1.0, 0.9};
  AsciiPlotOptions opt;
  opt.width = 40;
  opt.height = 8;
  opt.title = "loss";
  const std::string plot = render_ascii_plot({a, b}, {"lamb", "kfac"}, opt);
  EXPECT_NE(plot.find("loss"), std::string::npos);
  EXPECT_NE(plot.find("*=lamb"), std::string::npos);
  EXPECT_NE(plot.find("+=kfac"), std::string::npos);
  EXPECT_NE(plot.find("3.000"), std::string::npos);
}

TEST(AsciiPlot, RejectsMismatchedLabels) {
  EXPECT_THROW(render_ascii_plot({{1.0, 2.0}}, {}), Error);
}

}  // namespace
}  // namespace pf
