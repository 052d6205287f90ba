// Tests for src/pipeline: schedule generators, the virtual-time engine
// (replay_plan) and the discrete-event simulator built on it. The
// quantitative assertions mirror the paper's Table 1:
//   GPipe / 1F1B:  C_f = C_b = N + D - 1 (with pipeline flush)
//   Chimera:       C_f = D, C_b = 2D - 2 when N_micro = D
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <set>
#include <string>
#include <tuple>

#include "src/common/check.h"
#include "src/pipeline/chimera.h"
#include "src/pipeline/gpipe.h"
#include "src/pipeline/one_f_one_b.h"
#include "src/pipeline/schedule_registry.h"
#include "src/pipeline/simulator.h"
#include "src/pipeline/step_plan.h"
#include "tests/support/op_start.h"

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
    const double start = op_start(spec, res, op);
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
      EXPECT_TRUE(res.op_end_times.count(op_key(op))) << op_debug(op);
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

// Structural properties of the runtime's step graph, over every registry
// schedule and shape the grid allows, with and without K-FAC work:
//  * every dep precedes its task (TaskExecutor needs deps to exist first);
//  * each lane's F/B ops, sorted by priority, are plan_device_order's;
//  * B(s, m) depends on B(s, m-1): backwards fold micros in order;
//  * W(s, m) depends on its own B(s, m) and on W(s, m-1).
TEST(StepPlanProperties, HoldOnEveryRegistryShape) {
  struct KfacStep {
    const char* name;
    std::size_t factors;
    bool curv_step, inv_step;
  };
  const KfacStep kfac_steps[] = {{"no-kfac", 0, false, false},
                                 {"curvature", 6, true, false},
                                 {"inversion", 6, true, true}};
  for (const std::string& name : list_schedules()) {
    int shapes = 0;
    for (const int d : {2, 3, 4, 6, 8})
      for (const int n : {1, 2, 4, 6, 8, 12, 16})
        for (const int v : {1, 2, 3}) {
          const ScheduleParams p{d, n, v};
          try {
            traits_of(name).check_params(p);
          } catch (const Error&) {
            continue;  // a shape the schedule does not take
          }
          const ScheduleSpec spec = build_schedule(name, p);
          const auto order = plan_device_order(spec);
          for (const KfacStep& k : kfac_steps) {
            const std::string label = name + " D=" + std::to_string(d) +
                                      " N=" + std::to_string(n) +
                                      " V=" + std::to_string(v) + " " +
                                      k.name;
            const StepPlan plan = build_step_plan(
                spec, order,
                std::vector<std::size_t>(
                    static_cast<std::size_t>(spec.n_stages), k.factors),
                k.curv_step, k.inv_step);
            ++shapes;

            // (kind, stage, micro) -> task; a micro belongs to one pipeline.
            std::map<std::tuple<WorkKind, int, int>, std::size_t> op_task;
            std::vector<std::vector<std::size_t>> lane_ops(plan.n_lanes);
            for (std::size_t i = 0; i < plan.tasks.size(); ++i) {
              const PlannedTask& t = plan.tasks[i];
              for (const std::size_t dep : t.deps)
                ASSERT_LT(dep, i) << label << ": task " << i;
              if (!t.is_op) continue;
              op_task[{t.kind, t.stage, t.micro}] = i;
              if (t.kind != WorkKind::kBackwardWeight)
                lane_ops[t.lane].push_back(i);
            }
            const auto depends_on = [&](std::size_t task, WorkKind kind,
                                        int stage, int micro) {
              const auto it = op_task.find({kind, stage, micro});
              const auto& deps = plan.tasks[task].deps;
              return it != op_task.end() &&
                     std::find(deps.begin(), deps.end(), it->second) !=
                         deps.end();
            };

            ASSERT_EQ(lane_ops.size(), order.size()) << label;
            for (std::size_t l = 0; l < lane_ops.size(); ++l) {
              auto& ids = lane_ops[l];
              std::stable_sort(ids.begin(), ids.end(),
                               [&](std::size_t a, std::size_t b) {
                                 return plan.tasks[a].priority <
                                        plan.tasks[b].priority;
                               });
              std::vector<PipeOp> ops;
              for (const std::size_t i : ids) ops.push_back(plan.tasks[i].op);
              EXPECT_EQ(ops, order[l]) << label << ": lane " << l;
            }

            for (const auto& [key, i] : op_task) {
              const auto [kind, s, m] = key;
              const std::string at = "(" + std::to_string(s) + ", " +
                                     std::to_string(m) + ")";
              if (kind == WorkKind::kBackward && m > 0) {
                EXPECT_TRUE(depends_on(i, WorkKind::kBackward, s, m - 1))
                    << label << ": B" << at << " after B(s, m-1)";
              }
              if (kind == WorkKind::kBackwardWeight) {
                EXPECT_TRUE(depends_on(i, WorkKind::kBackward, s, m))
                    << label << ": W" << at << " after its own B";
                if (m > 0) {
                  EXPECT_TRUE(
                      depends_on(i, WorkKind::kBackwardWeight, s, m - 1))
                      << label << ": W" << at << " after W(s, m-1)";
                }
              }
            }
          }
        }
    EXPECT_GT(shapes, 0) << name << " took no shape of the grid";
  }
}

// The same builder's flushless stream: 1f1b-flushless over steps·N micros
// in steps of N, over D 2–8 × N {1, 2, 4, 8} × steps {1, 2, 3, 5}:
//  * every dep precedes its task;
//  * each lane is one chain in plan order (every task depends on the
//    lane's previous task), so execution order, and with it the weight
//    version each op reads, is fixed by the plan;
//  * each lane's ops are plan_device_order's, in order;
//  * each stage runs exactly `steps` updates, tagged 0..steps-1 in lane
//    order, each right after its own kSyncGrad;
//  * update k follows every backward of step k and precedes every
//    backward of step k+1 on its lane.
TEST(StepPlanProperties, HoldOnEveryStreamShape) {
  int shapes = 0;
  for (int d = 2; d <= 8; ++d)
    for (const int n : {1, 2, 4, 8})
      for (const int steps : {1, 2, 3, 5}) {
        const std::string label = "D=" + std::to_string(d) +
                                  " N=" + std::to_string(n) +
                                  " steps=" + std::to_string(steps);
        const ScheduleSpec spec =
            build_schedule("1f1b-flushless", {d, n * steps, 1});
        const auto order = plan_device_order(spec);
        const StepPlan plan = build_step_plan(
            spec, order, std::vector<std::size_t>(static_cast<std::size_t>(d)),
            false, false, n);
        ++shapes;

        std::vector<std::vector<std::size_t>> lanes(plan.n_lanes);
        for (std::size_t i = 0; i < plan.tasks.size(); ++i) {
          for (const std::size_t dep : plan.tasks[i].deps)
            ASSERT_LT(dep, i) << label << ": task " << i;
          lanes[plan.tasks[i].lane].push_back(i);
        }
        ASSERT_EQ(lanes.size(), order.size()) << label;
        for (std::size_t l = 0; l < lanes.size(); ++l) {
          const auto& ids = lanes[l];
          const std::string at = label + ": lane " + std::to_string(l);
          std::vector<PipeOp> ops;
          std::map<int, int> updates;  // stage -> updates so far
          for (std::size_t k = 0; k < ids.size(); ++k) {
            const PlannedTask& t = plan.tasks[ids[k]];
            if (k > 0) {
              EXPECT_NE(std::find(t.deps.begin(), t.deps.end(), ids[k - 1]),
                        t.deps.end())
                  << at << ": task " << ids[k] << " is off the lane chain";
            }
            if (t.is_op) ops.push_back(t.op);
            if (t.kind == WorkKind::kBackward) {
              EXPECT_EQ(updates[t.stage], t.micro / n)
                  << at << ": B(" << t.stage << ", " << t.micro << ") after "
                  << updates[t.stage] << " updates";
            }
            if (t.kind == WorkKind::kOptimizerUpdate) {
              EXPECT_EQ(t.step, updates[t.stage]) << at;
              ASSERT_GT(k, 0u) << at;
              const PlannedTask& sync = plan.tasks[ids[k - 1]];
              EXPECT_TRUE(sync.kind == WorkKind::kSyncGrad &&
                          sync.stage == t.stage && sync.step == t.step)
                  << at << ": update " << t.step << " of stage " << t.stage
                  << " not right after its sync-grad";
              ++updates[t.stage];
            }
          }
          EXPECT_EQ(ops, order[l]) << at;
          for (const auto& [s, u] : updates)
            EXPECT_EQ(u, steps) << at << ": stage " << s;
        }
      }
  EXPECT_EQ(shapes, 7 * 4 * 4);
}

// Fair-share K-FAC dispatch in virtual time. The plan of every registry
// schedule PipelineRuntime executes (flush, at most two pipelines) at D=4,
// N=8 with 6 factors per stage, on a curvature step and on an inversion
// step, is replayed under one per-kind cost vector at 2 and 3 threads
// (fewer threads than lanes), then replayed again with its K-FAC
// priorities rewritten to stage-major creation order (kKfacPriorityBase +
// plan index: stage 0's whole sequence first). Interleaving the stages'
// sequences never lengthens the step, and on 1f1b at 3 threads — the bench
// shape, where the last stage has no steady-state bubble and its K-FAC ran
// alone after the others' — it shortens it. (The simulator-only chimera-4,
// four pipelines, is the one registry plan it lengthens here: 56.84 →
// 57.05 on the curvature step at 3 threads.)
TEST(StepPlanKfacDispatch, FairShareNeverLengthensTheStep) {
  const auto cost = [](const PlannedTask& t) {
    switch (t.kind) {
      case WorkKind::kForward: return 1.4;
      case WorkKind::kBackward: return 2.0;
      case WorkKind::kBackwardWeight: return 1.0;
      case WorkKind::kCurvatureA: return 0.06;
      case WorkKind::kCurvatureB: return 0.12;
      case WorkKind::kSyncCurvature: return 0.01;
      case WorkKind::kInversionA: return 1.0;
      case WorkKind::kInversionB: return 0.15;
      case WorkKind::kPrecondition: return 0.1;
      case WorkKind::kOptimizerUpdate: return 0.5;
      default: return 0.01;
    }
  };
  struct KfacStep {
    const char* name;
    bool inv_step;
  };
  int compared = 0;
  for (const std::string& name : list_schedules()) {
    const ScheduleTraits& traits = traits_of(name);
    if (!traits.flush || traits.n_pipelines > 2) continue;  // not executable
    const ScheduleParams p{4, 8, 2};
    try {
      traits.check_params(p);
    } catch (const Error&) {
      continue;  // a shape the schedule does not take
    }
    const ScheduleSpec spec = build_schedule(name, p);
    const auto order = plan_device_order(spec);
    for (const KfacStep k : {KfacStep{"curvature", false},
                             KfacStep{"inversion", true}}) {
      const StepPlan fair = build_step_plan(
          spec, order,
          std::vector<std::size_t>(static_cast<std::size_t>(spec.n_stages),
                                   6),
          true, k.inv_step);
      StepPlan stage_major = fair;
      std::vector<double> seconds;
      for (std::size_t i = 0; i < fair.tasks.size(); ++i) {
        seconds.push_back(cost(fair.tasks[i]));
        if (is_kfac_kind(fair.tasks[i].kind))
          stage_major.tasks[i].priority =
              kKfacPriorityBase + static_cast<long>(i);
      }
      for (const std::size_t threads : {2, 3}) {
        const double got = replay_plan(fair, seconds, 0.01, threads).makespan;
        const double old =
            replay_plan(stage_major, seconds, 0.01, threads).makespan;
        const std::string label = name + " " + k.name + " threads=" +
                                  std::to_string(threads);
        EXPECT_LE(got, old) << label;
        if (name == "1f1b" && threads == 3) EXPECT_LT(got, old) << label;
        ++compared;
      }
    }
  }
  EXPECT_EQ(compared, 5 * 2 * 2);  // 1f1b gpipe zb-h1 chimera interleaved
}

}  // namespace
}  // namespace pf
