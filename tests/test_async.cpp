// Tests for asynchronous pipelines (Appendix C.1) and heterogeneous
// per-stage costs (§5 non-Transformer discussion).
#include <gtest/gtest.h>

#include "src/common/check.h"
#include "src/pipeline/async_pipeline.h"
#include "src/pipeline/gpipe.h"
#include "src/pipeline/one_f_one_b.h"
#include "src/pipeline/schedule_registry.h"

namespace pf {
namespace {

StepCosts unit_costs() {
  StepCosts c;
  c.t_forward = 1.0;
  c.t_backward = 2.0;
  return c;
}

TEST(StageCostScale, ScalesPerStageDurations) {
  StepCosts c = unit_costs();
  c.stage_forward_scale = {1.0, 3.0};
  c.stage_backward_scale = {1.0, 3.0};
  const auto spec = make_gpipe(2, 1);
  const auto res = simulate_step(spec, c);
  EXPECT_DOUBLE_EQ(res.op_end({OpType::kForward, 0, 0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(res.op_end({OpType::kForward, 0, 1, 0}), 1.0 + 3.0);
  // Stage-1 backward costs 6.
  EXPECT_DOUBLE_EQ(res.op_end({OpType::kBackward, 0, 1, 0}), 4.0 + 6.0);
}

TEST(StageCostScale, SlowestStageGatesThroughput) {
  StepCosts uniform = unit_costs();
  StepCosts skew = unit_costs();
  skew.stage_forward_scale = {2.0, 1.0, 0.5, 0.5};
  skew.stage_backward_scale = {2.0, 1.0, 0.5, 0.5};
  const auto u = simulate_step(make_gpipe(4, 8), uniform);
  const auto s = simulate_step(make_gpipe(4, 8), skew);
  // Same mean stage cost, but the imbalanced pipeline is strictly slower
  // per step and less utilized.
  EXPECT_GT(s.pipe_makespan, u.pipe_makespan);
  EXPECT_LT(s.timeline.utilization(0.0, s.pipe_makespan),
            u.timeline.utilization(0.0, u.pipe_makespan));
}

TEST(AsyncPipeline, NearFullUtilizationInSteadyState) {
  const auto rep = simulate_async_1f1b(4, 4, 8, unit_costs());
  EXPECT_GT(rep.utilization, 0.95);
}

TEST(AsyncPipeline, BeatsSynchronousUtilization) {
  StepCosts c = unit_costs();
  const auto sync = simulate_step(make_1f1b(4, 4), c);
  const double sync_util =
      sync.timeline.utilization(0.0, sync.pipe_makespan);
  const auto async = simulate_async_1f1b(4, 4, 8, c);
  EXPECT_GT(async.utilization, sync_util + 0.2);
}

TEST(AsyncPipeline, StalenessBoundedByDepthAndFresherDownstream) {
  const auto rep = simulate_async_1f1b(4, 4, 8, unit_costs());
  ASSERT_EQ(rep.staleness_per_stage.size(), 4u);
  for (double s : rep.staleness_per_stage) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 4.0);  // at most D mini-batches stale
  }
  // The last stage computes gradients immediately after its update window —
  // the freshest weights in the pipeline (PipeDream property).
  EXPECT_LE(rep.staleness_per_stage.back(), rep.staleness_per_stage.front());
  EXPECT_GE(rep.max_staleness, 1.0);  // asynchrony is real
}

TEST(AsyncPipeline, InlineUpdatesAppearOncePerIterationPerDevice) {
  StepCosts c = unit_costs();
  c.t_optimizer = 0.25;
  const auto rep = simulate_async_1f1b(4, 4, 6, c);
  for (std::size_t d = 0; d < 4; ++d) {
    int updates = 0;
    for (const auto& iv : rep.timeline.device_intervals(d))
      updates += iv.kind == WorkKind::kOptimizerUpdate;
    EXPECT_EQ(updates, 6);  // one per mini-batch, device-local
  }
}

// Exact values of the stream's replay. They move if the rule that places
// each step tail in its device chain (it takes the deps of the device's
// next op) drifts.
TEST(AsyncPipeline, StreamReplayIsPinned) {
  StepCosts c = unit_costs();
  c.t_p2p = 0.1;
  c.t_optimizer = 0.25;
  const auto deep = simulate_async_1f1b(4, 4, 6, c);
  EXPECT_EQ(deep.stream_makespan, 86.249999999999972);
  EXPECT_EQ(deep.utilization, 0.95304347826086944);
  EXPECT_EQ(deep.staleness_per_stage, (std::vector<double>{1, 1, 1, 0}));
  const auto shallow = simulate_async_1f1b(3, 2, 5, c);
  EXPECT_EQ(shallow.stream_makespan, 38.600000000000009);
  EXPECT_EQ(shallow.utilization, 0.9597006332757626);
  EXPECT_EQ(shallow.staleness_per_stage, (std::vector<double>{1, 1, 0}));
}

TEST(AsyncPipeline, ThroughputApproachesIdeal) {
  // Ideal flushless throughput: one micro per (T_f + T_b) per device row.
  const auto rep = simulate_async_1f1b(4, 4, 12, unit_costs());
  const double ideal = 1.0 / 3.0;
  EXPECT_GT(rep.throughput_micros_per_time, 0.85 * ideal);
}

TEST(AsyncPipeline, RejectsDegenerateConfigs) {
  EXPECT_THROW(simulate_async_1f1b(1, 4, 4, unit_costs()), Error);
  EXPECT_THROW(simulate_async_1f1b(4, 4, 1, unit_costs()), Error);
}

TEST(AsyncPipeline, FlushlessScheduleIsARegistryEntry) {
  // The former separate simulation path is now a registry schedule:
  // traits carry flush = false, the factory emits 1F1B's program under the
  // flushless name, and the streaming simulation rides build_schedule.
  ASSERT_TRUE(schedule_registered("1f1b-flushless"));
  const ScheduleTraits& t = traits_of("1f1b-flushless");
  EXPECT_FALSE(t.flush);
  EXPECT_EQ(t.n_pipelines, 1);
  ScheduleParams p;
  p.n_stages = 4;
  p.n_micro = 8;
  const auto spec = build_schedule("1f1b-flushless", p);
  EXPECT_EQ(spec.name, "1f1b-flushless");
  const auto ref = make_1f1b(4, 8);
  ASSERT_EQ(spec.programs.size(), ref.programs.size());
  EXPECT_EQ(spec.programs, ref.programs);
  // Same report as the pre-registry path (the spec is the same program).
  const auto rep = simulate_async_1f1b(4, 4, 6, unit_costs());
  EXPECT_GT(rep.utilization, 0.9);
}

}  // namespace
}  // namespace pf
