// Tests for src/pipeline: schedule generators, the virtual-time engine
// (replay_plan) and the discrete-event simulator built on it. The
// quantitative assertions mirror the paper's Table 1:
//   GPipe / 1F1B:  C_f = C_b = N + D - 1 (with pipeline flush)
//   Chimera:       C_f = D, C_b = 2D - 2 when N_micro = D
#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "src/common/check.h"
#include "src/pipeline/chimera.h"
#include "src/pipeline/gpipe.h"
#include "src/pipeline/one_f_one_b.h"
#include "src/pipeline/simulator.h"
#include "src/pipeline/step_plan.h"

namespace pf {
namespace {

StepCosts unit_costs(double tb_over_tf = 2.0) {
  StepCosts c;
  c.t_forward = 1.0;
  c.t_backward = tb_over_tf;
  return c;
}

void expect_dependencies_respected(const ScheduleSpec& spec,
                                   const StepSimResult& res,
                                   double t_p2p = 0.0) {
  for (const auto& op : spec.all_ops()) {
    const double start = res.op_start(op);
    if (op.type == OpType::kForward) {
      if (op.stage > 0) {
        const PipeOp dep{OpType::kForward, op.pipeline, op.stage - 1,
                         op.micro};
        EXPECT_GE(start, res.op_end(dep) + t_p2p - 1e-9) << op_debug(op);
      }
    } else {
      const PipeOp fwd{OpType::kForward, op.pipeline, op.stage, op.micro};
      EXPECT_GE(start, res.op_end(fwd) - 1e-9) << op_debug(op);
      if (op.stage < spec.n_stages - 1) {
        const PipeOp dep{OpType::kBackward, op.pipeline, op.stage + 1,
                         op.micro};
        EXPECT_GE(start, res.op_end(dep) + t_p2p - 1e-9) << op_debug(op);
      }
    }
  }
}

TEST(GPipeSchedule, ProgramsAreAllForwardsThenAllBackwards) {
  const auto spec = make_gpipe(4, 4);
  for (const auto& prog : spec.programs) {
    ASSERT_EQ(prog.size(), 8u);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(prog[i].type, OpType::kForward);
    for (int i = 4; i < 8; ++i) EXPECT_EQ(prog[i].type, OpType::kBackward);
  }
}

TEST(GPipeSchedule, CriticalPathMatchesTable1) {
  // T_pipe = (N + D - 1)(T_f + T_b).
  for (int d : {2, 4, 8}) {
    for (int n : {2, 4, 8, 16}) {
      const auto res = simulate_step(make_gpipe(d, n), unit_costs());
      const double expect = (n + d - 1) * (1.0 + 2.0);
      EXPECT_NEAR(res.pipe_makespan, expect, 1e-9) << "D=" << d << " N=" << n;
    }
  }
}

TEST(GPipeSchedule, BubbleTimeMatchesTable1) {
  // Per device, bubble = (D-1)(T_f + T_b) within the pipeline window.
  const int D = 4, N = 4;
  const auto res = simulate_step(make_gpipe(D, N), unit_costs());
  for (std::size_t dev = 0; dev < 4; ++dev) {
    EXPECT_NEAR(res.timeline.bubble_time(dev, 0.0, res.pipe_makespan),
                (D - 1) * 3.0, 1e-9);
  }
}

TEST(OneFOneBSchedule, CriticalPathEqualsGPipe) {
  // With a flush, 1F1B has the same critical path as GPipe, only lower
  // activation memory.
  for (int d : {2, 4, 8}) {
    for (int n : {4, 8}) {
      const auto res = simulate_step(make_1f1b(d, n), unit_costs());
      EXPECT_NEAR(res.pipe_makespan, (n + d - 1) * 3.0, 1e-9)
          << "D=" << d << " N=" << n;
    }
  }
}

TEST(OneFOneBSchedule, WarmupDepthDecreasesWithStage) {
  const auto spec = make_1f1b(4, 8);
  // Stage 0 runs 4 warmup forwards; last stage runs 1.
  const auto& p0 = spec.programs[0];
  EXPECT_EQ(p0[0].type, OpType::kForward);
  EXPECT_EQ(p0[3].type, OpType::kForward);
  EXPECT_EQ(p0[4].type, OpType::kBackward);
  const auto& p3 = spec.programs[3];
  EXPECT_EQ(p3[0].type, OpType::kForward);
  EXPECT_EQ(p3[1].type, OpType::kBackward);
}

TEST(OneFOneBSchedule, InFlightMicrobatchesBoundedByDepth) {
  // At any point in stage p's program, (#forwards - #backwards) ≤ D - p:
  // the 1F1B memory guarantee.
  const int D = 8, N = 24;
  const auto spec = make_1f1b(D, N);
  for (int p = 0; p < D; ++p) {
    int in_flight = 0, peak = 0;
    for (const auto& op : spec.programs[static_cast<std::size_t>(p)]) {
      in_flight += op.type == OpType::kForward ? 1 : -1;
      peak = std::max(peak, in_flight);
    }
    EXPECT_LE(peak, D - p);
  }
}

TEST(Simulator, DependenciesRespectedAcrossSchedules) {
  for (double ratio : {1.0, 2.0, 3.0}) {
    for (auto spec : {make_gpipe(4, 8), make_1f1b(4, 8), make_chimera(4, 4),
                      make_chimera(8, 8)}) {
      const auto res = simulate_step(spec, unit_costs(ratio));
      expect_dependencies_respected(spec, res);
    }
  }
}

TEST(Simulator, P2PDelaysDependencies) {
  StepCosts c = unit_costs();
  c.t_p2p = 0.25;
  const auto spec = make_gpipe(4, 4);
  const auto res = simulate_step(spec, c);
  expect_dependencies_respected(spec, res, c.t_p2p);
  EXPECT_NEAR(res.pipe_makespan, (4 + 4 - 1) * 3.0 + 2 * 3 * 0.25, 1e-9);
}

TEST(Simulator, EveryOpExecutedExactlyOnce) {
  for (auto spec : {make_gpipe(4, 8), make_1f1b(8, 8), make_chimera(8, 8)}) {
    const auto res = simulate_step(spec, unit_costs());
    std::size_t executed = 0;
    for (const auto& prog : res.realized_programs) executed += prog.size();
    EXPECT_EQ(executed, spec.all_ops().size()) << spec.name;
    for (const auto& op : spec.all_ops())
      EXPECT_TRUE(res.has_op(op)) << op_debug(op);
  }
}

TEST(Simulator, StaticProgramsExecuteInOrder) {
  const auto spec = make_gpipe(4, 4);
  const auto res = simulate_step(spec, unit_costs());
  EXPECT_EQ(res.realized_programs, spec.programs);
}

TEST(ChimeraSchedule, CriticalPathMatchesTable1) {
  // Chimera: C_f = D forwards and C_b = 2D-2 backwards when N = D.
  for (int d : {4, 8, 16}) {
    const auto res = simulate_step(make_chimera(d, d), unit_costs());
    const double expect = d * 1.0 + (2 * d - 2) * 2.0;
    EXPECT_NEAR(res.pipe_makespan, expect, 1e-9) << "D=" << d;
  }
}

TEST(ChimeraSchedule, HigherUtilizationThanGPipe) {
  // The whole point of bidirectional pipelines (paper Fig. 3 vs 4).
  const int D = 8, N = 8;
  const auto g = simulate_step(make_gpipe(D, N), unit_costs());
  const auto c = simulate_step(make_chimera(D, N), unit_costs());
  const double util_g = g.timeline.utilization(0.0, g.pipe_makespan);
  const double util_c = c.timeline.utilization(0.0, c.pipe_makespan);
  EXPECT_GT(util_c, util_g + 0.05);
}

TEST(ChimeraSchedule, EachDeviceOwnsTwoStages) {
  const auto spec = make_chimera(8, 8);
  for (int dev = 0; dev < 8; ++dev) {
    const auto owned = spec.stages_of_device(dev);
    ASSERT_EQ(owned.size(), 2u);
    // Down stage d and up stage D-1-d.
    EXPECT_EQ(owned[0].second + owned[1].second, 7);
  }
}

TEST(ChimeraSchedule, RejectsOddConfigurations) {
  EXPECT_THROW(make_chimera(3, 4), Error);
  EXPECT_THROW(make_chimera(4, 5), Error);
}

TEST(StepTail, SyncGradPreconditionOptimizerAppended) {
  StepCosts c = unit_costs();
  c.t_sync_grad = 0.5;
  c.t_precondition = 0.25;
  c.t_optimizer = 0.125;
  const auto res = simulate_step(make_gpipe(4, 4), c);
  // Each device gets one interval of each tail kind.
  for (std::size_t d = 0; d < 4; ++d) {
    int sync = 0, prec = 0, opt = 0;
    for (const auto& iv : res.timeline.device_intervals(d)) {
      sync += iv.kind == WorkKind::kSyncGrad;
      prec += iv.kind == WorkKind::kPrecondition;
      opt += iv.kind == WorkKind::kOptimizerUpdate;
    }
    EXPECT_EQ(sync, 1);
    EXPECT_EQ(prec, 1);
    EXPECT_EQ(opt, 1);
  }
  EXPECT_GT(res.step_time, res.pipe_makespan);
}

TEST(StepTail, ChimeraSyncPairsMirrorDevices) {
  StepCosts c = unit_costs();
  c.t_sync_grad = 0.5;
  const auto res = simulate_step(make_chimera(4, 4), c);
  // Paired devices (d, D-1-d) start their sync at the same time.
  for (std::size_t d = 0; d < 2; ++d) {
    double s0 = -1, s1 = -1;
    for (const auto& iv : res.timeline.device_intervals(d))
      if (iv.kind == WorkKind::kSyncGrad) s0 = iv.start;
    for (const auto& iv : res.timeline.device_intervals(3 - d))
      if (iv.kind == WorkKind::kSyncGrad) s1 = iv.start;
    EXPECT_DOUBLE_EQ(s0, s1);
  }
}

TEST(Replicate, StepsTileAtThePeriod) {
  StepCosts c = unit_costs();
  c.t_optimizer = 0.5;
  const auto res = simulate_step(make_gpipe(2, 2), c);
  const Timeline three = replicate_steps(res, 3);
  EXPECT_EQ(three.device_intervals(0).size(),
            3 * res.timeline.device_intervals(0).size());
  EXPECT_NEAR(three.makespan(), 2.0 * res.step_time + res.step_time, 1e-9);
}

TEST(Bubbles, GPipeBubbleFractionDecreasesWithMoreMicrobatches) {
  const auto few = simulate_step(make_gpipe(4, 4), unit_costs());
  const auto many = simulate_step(make_gpipe(4, 16), unit_costs());
  const double frac_few = total_bubble_time(few) / (4 * few.pipe_makespan);
  const double frac_many = total_bubble_time(many) / (4 * many.pipe_makespan);
  EXPECT_LT(frac_many, frac_few);
}

// Property sweep: utilization in the pipeline window equals
// N(T_f+T_b) / T_pipe for flush-based schedules, for various shapes.
struct UtilCase {
  int d;
  int n;
  double ratio;
};

class UtilizationSweep : public ::testing::TestWithParam<UtilCase> {};

TEST_P(UtilizationSweep, MatchesClosedForm) {
  const auto p = GetParam();
  const auto res = simulate_step(make_gpipe(p.d, p.n), unit_costs(p.ratio));
  const double busy = p.n * (1.0 + p.ratio);
  const double expect = busy / res.pipe_makespan;
  EXPECT_NEAR(res.timeline.utilization(0.0, res.pipe_makespan), expect, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, UtilizationSweep,
    ::testing::Values(UtilCase{2, 2, 1.0}, UtilCase{2, 8, 2.0},
                      UtilCase{4, 4, 2.0}, UtilCase{4, 12, 3.0},
                      UtilCase{8, 8, 2.0}, UtilCase{8, 24, 1.5},
                      UtilCase{16, 16, 2.0}));

// replay_plan takes any acyclic plan: a dep may be created after its
// dependent. A cross-lane edge pays the handoff; a cycle is a named
// deadlock, not a hang.
TEST(PlanReplay, AcceptsAnyAcyclicOrderAndNamesCycles) {
  StepPlan plan;
  plan.n_lanes = 2;
  plan.tasks.resize(2);
  plan.tasks[0].lane = 1;
  plan.tasks[0].deps = {1};
  plan.tasks[1].lane = 0;
  const PlanReplay r = replay_plan(plan, {2.0, 1.0}, 0.5, 2);
  EXPECT_EQ(r.start[1], 0.0);
  EXPECT_EQ(r.start[0], 1.5);
  EXPECT_EQ(r.makespan, 3.5);

  plan.tasks[1].deps = {0};
  try {
    replay_plan(plan, {2.0, 1.0}, 0.5, 2);
    ADD_FAILURE() << "a dependency cycle replayed";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("deadlocked"), std::string::npos)
        << e.what();
  }
}

// Start times compare exactly. Lane 0 frees at t = 1; a floating task
// (kWeightPriorityBase) is ready then, and the program head (priority 0)
// one ulp later, so the floating task takes the slot. When both are ready
// at t = 1, the program head wins on priority.
TEST(PlanReplay, StartTimesCompareExactly) {
  StepPlan plan;
  plan.n_lanes = 2;
  plan.tasks.resize(4);
  plan.tasks[0].lane = 1;  // the program head's cross-lane producer
  plan.tasks[1].lane = 0;  // occupies lane 0 until t = 1
  plan.tasks[2].lane = 0;  // program head
  plan.tasks[2].deps = {0, 1};
  plan.tasks[3].lane = 0;  // floating task
  plan.tasks[3].priority = kWeightPriorityBase;
  plan.tasks[3].deps = {1};
  const double one_ulp_late = std::nextafter(1.0, 2.0);

  PlanReplay r = replay_plan(plan, {one_ulp_late, 1.0, 1.0, 1.0}, 0.0, 2);
  EXPECT_EQ(r.start[3], 1.0);
  EXPECT_EQ(r.start[2], 2.0);

  r = replay_plan(plan, {1.0, 1.0, 1.0, 1.0}, 0.0, 2);
  EXPECT_EQ(r.start[2], 1.0);
  EXPECT_EQ(r.start[3], 2.0);
}

}  // namespace
}  // namespace pf
