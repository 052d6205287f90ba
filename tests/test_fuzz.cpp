// Randomized property tests ("fuzz") over the simulator and the bubble
// assigner: for hundreds of random configurations, structural invariants
// must hold — no overlap, dependencies respected, work conserved, all tasks
// placed, utilization consistent with busy-time accounting.
#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <string>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/core/bubble_assigner.h"
#include "src/pipeline/chimera.h"
#include "src/pipeline/gpipe.h"
#include "src/pipeline/interleaved_1f1b.h"
#include "src/pipeline/one_f_one_b.h"
#include "src/pipeline/schedule_registry.h"
#include "src/pipeline/simulator.h"

namespace pf {
namespace {

ScheduleSpec random_schedule(Rng& rng) {
  const int kind = static_cast<int>(rng.uniform_int(4));
  switch (kind) {
    case 0: {
      const int d = 2 + static_cast<int>(rng.uniform_int(7));
      const int n = 1 + static_cast<int>(rng.uniform_int(12));
      return make_gpipe(d, n);
    }
    case 1: {
      const int d = 2 + static_cast<int>(rng.uniform_int(7));
      const int n = 1 + static_cast<int>(rng.uniform_int(12));
      return make_1f1b(d, n);
    }
    case 2: {
      const int d = 2 * (1 + static_cast<int>(rng.uniform_int(4)));
      const int n = 2 * (1 + static_cast<int>(rng.uniform_int(6)));
      return make_chimera(d, n);
    }
    default: {
      const int d = 2 + static_cast<int>(rng.uniform_int(4));
      const int v = 1 + static_cast<int>(rng.uniform_int(3));
      const int n = 1 + static_cast<int>(rng.uniform_int(8));
      return make_interleaved_1f1b(d, v, n);
    }
  }
}

StepCosts random_costs(Rng& rng, int n_stages) {
  StepCosts c;
  c.t_forward = rng.uniform(0.2, 3.0);
  c.t_backward = c.t_forward * rng.uniform(1.0, 3.0);
  if (rng.bernoulli(0.3)) c.t_p2p = rng.uniform(0.0, 0.2);
  if (rng.bernoulli(0.3)) c.t_sync_grad = rng.uniform(0.0, 0.5);
  if (rng.bernoulli(0.3)) c.t_precondition = rng.uniform(0.0, 0.5);
  if (rng.bernoulli(0.3)) c.t_optimizer = rng.uniform(0.0, 0.5);
  if (rng.bernoulli(0.25)) {
    for (int s = 0; s < n_stages; ++s) {
      const double scale = rng.uniform(0.5, 2.0);
      c.stage_forward_scale.push_back(scale);
      c.stage_backward_scale.push_back(scale);
    }
  }
  return c;
}

TEST(SimulatorFuzz, InvariantsHoldForRandomConfigurations) {
  Rng rng(20260612);
  for (int trial = 0; trial < 120; ++trial) {
    const auto spec = random_schedule(rng);
    const auto costs = random_costs(rng, spec.n_stages);
    const auto res = simulate_step(spec, costs);

    // 1. Every op executed exactly once (Timeline::add already rejects
    //    overlap on a device).
    std::size_t executed = 0;
    for (const auto& prog : res.realized_programs) executed += prog.size();
    ASSERT_EQ(executed, spec.all_ops().size())
        << spec.name << " trial " << trial;

    // 2. Dependencies respected.
    for (const auto& op : spec.all_ops()) {
      const double start = res.op_start(op);
      if (op.type == OpType::kForward) {
        if (op.stage > 0) {
          ASSERT_GE(start + 1e-9,
                    res.op_end({OpType::kForward, op.pipeline, op.stage - 1,
                                op.micro}) +
                        costs.t_p2p);
        }
      } else {
        ASSERT_GE(start + 1e-9, res.op_end({OpType::kForward, op.pipeline,
                                            op.stage, op.micro}));
        if (op.stage < spec.n_stages - 1) {
          ASSERT_GE(start + 1e-9,
                    res.op_end({OpType::kBackward, op.pipeline, op.stage + 1,
                                op.micro}) +
                        costs.t_p2p);
        }
      }
    }

    // 3. Work conservation: per-device forward/backward interval time
    //    equals the sum of the op durations (tail work like sync-grad may
    //    overlap the pipeline window on early-finishing devices, so count
    //    only pipeline kinds).
    for (int dev = 0; dev < spec.n_devices; ++dev) {
      double expected = 0.0;
      for (const auto& op :
           res.realized_programs[static_cast<std::size_t>(dev)]) {
        expected += op.type == OpType::kForward
                        ? costs.forward_cost(op.stage)
                        : costs.backward_cost(op.stage);
      }
      double busy = 0.0;
      for (const auto& iv :
           res.timeline.device_intervals(static_cast<std::size_t>(dev)))
        if (iv.kind == WorkKind::kForward || iv.kind == WorkKind::kBackward)
          busy += iv.duration();
      ASSERT_NEAR(busy, expected, 1e-6) << spec.name << " dev " << dev;
    }

    // 4. Utilization in (0, 1].
    const double util =
        res.timeline.utilization(0.0, res.pipe_makespan);
    ASSERT_GT(util, 0.0);
    ASSERT_LE(util, 1.0 + 1e-9);

    // 5. Step tail extends (never shrinks) the step.
    ASSERT_GE(res.step_time, res.pipe_makespan - 1e-12);
  }
}

TEST(AssignerFuzz, RandomTaskSetsAlwaysPlaceCompletely) {
  Rng rng(777);
  for (int trial = 0; trial < 80; ++trial) {
    // Random base step: one device pattern replicated.
    const std::size_t n_dev = 1 + rng.uniform_int(4);
    Timeline base(n_dev);
    const double step_time = rng.uniform(4.0, 10.0);
    // Leave a guaranteed >= 2.0s trailing gap per step so every
    // non-splittable task (capped below 2.0) has a feasible home.
    for (std::size_t d = 0; d < n_dev; ++d) {
      double t = rng.uniform(0.0, 1.0);
      while (t < step_time - 3.5) {
        const double len = rng.uniform(0.3, 1.5);
        const double end = std::min(t + len, step_time - 2.0);
        base.add({.device = d, .start = t, .end = end,
                  .kind = WorkKind::kForward});
        t = end + rng.uniform(0.2, 1.2);
      }
    }

    // Random task DAG: chains of 1-3 tasks per root.
    std::vector<BubbleTask> tasks;
    const std::size_t n_roots = 1 + rng.uniform_int(12);
    for (std::size_t r = 0; r < n_roots; ++r) {
      const std::size_t dev = rng.uniform_int(n_dev);
      std::size_t prev = SIZE_MAX;
      const std::size_t chain = 1 + rng.uniform_int(3);
      for (std::size_t k = 0; k < chain; ++k) {
        BubbleTask t;
        t.id = tasks.size();
        t.device = dev;
        t.kind = WorkKind::kCurvatureA;
        t.splittable = rng.bernoulli(0.7);
        // Splittable work can be arbitrarily large; atomic work must fit
        // the guaranteed 2.0s trailing gap.
        t.duration =
            t.splittable ? rng.uniform(0.05, 4.0) : rng.uniform(0.05, 1.9);
        t.earliest_start = rng.uniform(0.0, step_time);
        t.min_chunk = 0.01;
        if (prev != SIZE_MAX) t.deps.push_back(prev);
        prev = t.id;
        tasks.push_back(std::move(t));
      }
    }

    AssignOptions opts;
    opts.max_steps = 512;
    const auto res = assign_to_bubbles(base, step_time, tasks, opts);

    // Every task finished after its readiness and its deps.
    double total_placed = 0.0;
    for (const auto& t : tasks) {
      ASSERT_TRUE(std::isfinite(res.task_end[t.id]));
      ASSERT_GE(res.task_end[t.id], t.earliest_start + t.duration - 1e-9);
      for (auto dep : t.deps)
        ASSERT_GE(res.task_end[t.id], res.task_end[dep] + t.duration - 1e-9);
      total_placed += t.duration;
    }

    // Busy-time accounting: the filled schedule carries exactly the base
    // work × steps_used plus every placed task second (tasks ending at the
    // window boundary may spill past it, hence ≤ with small slack).
    double base_busy = 0.0;
    for (std::size_t d = 0; d < n_dev; ++d)
      base_busy += base.busy_time(d, 0.0, step_time);
    double filled_busy = 0.0;
    for (std::size_t d = 0; d < n_dev; ++d)
      filled_busy += res.schedule.busy_time(d, 0.0, res.window);
    const double expected =
        base_busy * res.steps_used + total_placed;
    ASSERT_LE(filled_busy, expected + 1e-6);
    ASSERT_GE(filled_busy, base_busy * res.steps_used - 1e-6);
  }
}

TEST(RegistryFuzz, MalformedNamesAlwaysThrowAndListRegisteredSchedules) {
  Rng rng(424242);
  const std::string alphabet =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"
      "-_ .:/\\\t\n\"'{}";
  std::vector<std::string> names;
  // Random garbage of every length, including empty.
  for (int trial = 0; trial < 60; ++trial) {
    std::string name;
    const std::size_t len = rng.uniform_int(24);
    for (std::size_t i = 0; i < len; ++i)
      name += alphabet[rng.uniform_int(alphabet.size())];
    names.push_back(name);
  }
  // Near-misses of registered names: case flips, suffixes, whitespace.
  for (const auto& real : list_schedules()) {
    std::string upper = real;
    for (char& c : upper) c = static_cast<char>(std::toupper(c));
    names.push_back(upper);
    names.push_back(real + " ");
    names.push_back(" " + real);
    names.push_back(real + "2");
    names.push_back(real.substr(0, real.size() - 1));
  }
  ScheduleParams params;
  for (const auto& name : names) {
    if (schedule_registered(name)) continue;  // e.g. "1f1b" from a substr
    try {
      build_schedule(name, params);
      FAIL() << "expected pf::Error for \"" << name << "\"";
    } catch (const Error& e) {
      // The error must point the caller at the registered names.
      const std::string what = e.what();
      EXPECT_NE(what.find("unknown schedule"), std::string::npos) << name;
      EXPECT_NE(what.find("registered:"), std::string::npos) << name;
      EXPECT_NE(what.find("chimera"), std::string::npos) << name;
    }
  }
}

TEST(AssignerFuzz, UtilizationNeverDecreases) {
  Rng rng(31337);
  for (int trial = 0; trial < 40; ++trial) {
    Timeline base(2);
    base.add({.device = 0, .start = 0.0, .end = 1.0,
              .kind = WorkKind::kForward});
    base.add({.device = 1, .start = 0.5, .end = 1.5,
              .kind = WorkKind::kBackward});
    std::vector<BubbleTask> tasks;
    const std::size_t n = 1 + rng.uniform_int(6);
    for (std::size_t i = 0; i < n; ++i) {
      BubbleTask t;
      t.id = i;
      t.device = rng.uniform_int(2);
      t.duration = rng.uniform(0.1, 1.0);
      tasks.push_back(std::move(t));
    }
    const auto res = assign_to_bubbles(base, 2.0, tasks);
    ASSERT_GE(res.utilization_after, res.utilization_before - 1e-12);
  }
}

}  // namespace
}  // namespace pf
