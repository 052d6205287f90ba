#include "src/pipeline/simulator.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/pipeline/step_plan.h"

namespace pf {

double StepCosts::forward_cost(int stage) const {
  if (stage_forward_scale.empty()) return t_forward;
  PF_ASSERT(stage >= 0 &&
            static_cast<std::size_t>(stage) < stage_forward_scale.size());
  return t_forward * stage_forward_scale[static_cast<std::size_t>(stage)];
}

double StepCosts::backward_cost(int stage) const {
  if (stage_backward_scale.empty()) return t_backward;
  PF_ASSERT(stage >= 0 &&
            static_cast<std::size_t>(stage) < stage_backward_scale.size());
  return t_backward * stage_backward_scale[static_cast<std::size_t>(stage)];
}

double StepCosts::backward_w_cost(int stage) const {
  PF_ASSERT(backward_w_fraction > 0.0 && backward_w_fraction < 1.0);
  return backward_cost(stage) * backward_w_fraction;
}

double StepCosts::backward_b_cost(int stage) const {
  // Remainder, not a second product: B + W must equal the fused cost.
  return backward_cost(stage) - backward_w_cost(stage);
}

double StepSimResult::op_end(const PipeOp& op) const {
  auto it = op_end_times.find(op_key(op));
  PF_CHECK(it != op_end_times.end()) << "op not executed: " << op_debug(op);
  return it->second;
}

namespace {

// simulate_step's task graph, before the step tail: the plan plus each
// task's duration in seconds. Every task is an op task (is_op).
struct SimGraph {
  StepPlan plan;
  std::vector<double> seconds;
};

SimGraph build_sim_graph(const ScheduleSpec& spec, const StepCosts& costs) {
  spec.validate();
  PF_CHECK(costs.t_forward > 0 && costs.t_backward > 0);
  PF_CHECK(!(spec.dynamic_order && spec.split_backward))
      << "split_backward needs static programs (W floats, F/B do not)";
  const int S = spec.n_stages;

  SimGraph g;
  g.plan.n_lanes = static_cast<std::size_t>(spec.n_devices);
  g.plan.split_backward = spec.split_backward;
  std::map<long, std::size_t> task_of;  // op_key -> task index
  auto add_op = [&](const PipeOp& op, long priority) {
    PlannedTask t;
    t.lane = static_cast<std::size_t>(spec.device_of(op.pipeline, op.stage));
    t.priority = priority;
    t.stage = op.stage;
    t.micro = op.micro;
    t.op = op;
    t.is_op = true;
    if (op.type == OpType::kForward) {
      t.kind = WorkKind::kForward;
      g.seconds.push_back(costs.forward_cost(op.stage));
    } else if (op.type == OpType::kBackwardWeight) {
      t.kind = WorkKind::kBackwardWeight;
      g.seconds.push_back(costs.backward_w_cost(op.stage));
    } else {
      t.kind = WorkKind::kBackward;
      g.seconds.push_back(spec.split_backward ? costs.backward_b_cost(op.stage)
                                              : costs.backward_cost(op.stage));
    }
    task_of[op_key(op)] = g.plan.tasks.size();
    g.plan.tasks.push_back(std::move(t));
    return g.plan.tasks.size() - 1;
  };

  if (spec.dynamic_order) {
    // The greedy rule as one priority: backward drains first, then the
    // micro injected earliest *within its own pipeline* (this is what makes
    // the two pipelines alternate and reproduces the published Chimera
    // schedule), then the lower pipeline, then the shallower stage.
    std::vector<long> micro_index(static_cast<std::size_t>(spec.n_micro), 0);
    for (const auto& micros : spec.micros_of_pipeline)
      for (std::size_t i = 0; i < micros.size(); ++i)
        micro_index[static_cast<std::size_t>(micros[i])] =
            static_cast<long>(i);
    for (const PipeOp& op : spec.all_ops()) {
      const long forward = op.type == OpType::kForward ? 1 : 0;
      const long micro = micro_index[static_cast<std::size_t>(op.micro)];
      add_op(op, ((forward * spec.n_micro + micro) * spec.n_pipelines +
                  op.pipeline) * S + op.stage);
    }
  } else {
    // Head-of-line programs: priority = program position, and each op
    // follows its program predecessor (the task created just before it).
    for (const auto& prog : spec.programs)
      for (std::size_t i = 0; i < prog.size(); ++i) {
        const std::size_t t = add_op(prog[i], static_cast<long>(i));
        if (i > 0) g.plan.tasks[t].deps.push_back(t - 1);
      }
  }
  if (spec.split_backward) {
    // Floating W chains, one per owned (pipeline, stage), ascending micro:
    // the order dW accumulates in.
    for (int d = 0; d < spec.n_devices; ++d)
      for (const auto& [pl, s] : spec.stages_of_device(d)) {
        const auto& micros =
            spec.micros_of_pipeline[static_cast<std::size_t>(pl)];
        for (std::size_t i = 0; i < micros.size(); ++i) {
          const std::size_t t = add_op(
              {OpType::kBackwardWeight, pl, s, micros[i]},
              kWeightPriorityBase);
          if (i > 0) g.plan.tasks[t].deps.push_back(t - 1);
        }
      }
  }

  // Data dependencies, now that every op has a task.
  for (PlannedTask& t : g.plan.tasks) {
    const PipeOp& op = t.op;
    auto need = [&](OpType type, int stage) {
      t.deps.push_back(
          task_of.at(op_key({type, op.pipeline, stage, op.micro})));
    };
    if (op.type == OpType::kForward) {
      if (op.stage > 0) need(OpType::kForward, op.stage - 1);
    } else if (op.type == OpType::kBackwardWeight) {
      need(OpType::kBackward, op.stage);  // the caches its B pass harvested
    } else {
      need(OpType::kForward, op.stage);
      if (op.stage < S - 1) need(OpType::kBackward, op.stage + 1);
    }
  }
  return g;
}

}  // namespace

StepSimResult simulate_step(const ScheduleSpec& spec, const StepCosts& costs) {
  // One thread per device; t_p2p is the cross-device handoff.
  const SimGraph g = build_sim_graph(spec, costs);
  const StepPlan& plan = g.plan;
  const PlanReplay r = replay_plan(plan, g.seconds, costs.t_p2p, plan.n_lanes);
  StepSimResult res(plan.n_lanes);
  res.timeline = replay_timeline(plan, r);
  res.realized_programs.resize(plan.n_lanes);
  for (std::size_t d = 0; d < plan.n_lanes; ++d)
    for (const std::size_t i : r.lanes[d]) {
      const PipeOp& op = plan.tasks[i].op;
      res.realized_programs[d].push_back(op);
      res.op_end_times[op_key(op)] = r.end[i];
      res.pipe_makespan = std::max(res.pipe_makespan, r.end[i]);
    }

  // ---- Step tail: sync-grad, precondition, optimizer update ----
  std::vector<double> free_at(static_cast<std::size_t>(spec.n_devices), 0.0);
  for (std::size_t d = 0; d < free_at.size(); ++d)
    if (!res.timeline.device_intervals(d).empty())
      free_at[d] = res.timeline.device_intervals(d).back().end;
  if (costs.t_sync_grad > 0.0) {
    std::vector<double> sync_start(free_at);
    if (spec.n_pipelines == 2) {
      // Chimera: device d and its mirror D-1-d hold the same two stages and
      // must allreduce their gradients together.
      for (int d = 0; d < spec.n_devices; ++d) {
        const int partner = spec.n_devices - 1 - d;
        sync_start[static_cast<std::size_t>(d)] =
            std::max(free_at[static_cast<std::size_t>(d)],
                     free_at[static_cast<std::size_t>(partner)]);
      }
    }
    for (int d = 0; d < spec.n_devices; ++d) {
      const auto du = static_cast<std::size_t>(d);
      res.timeline.add(Interval{.device = du,
                                .start = sync_start[du],
                                .end = sync_start[du] + costs.t_sync_grad,
                                .kind = WorkKind::kSyncGrad});
      free_at[du] = sync_start[du] + costs.t_sync_grad;
    }
  }
  for (int d = 0; d < spec.n_devices; ++d) {
    const auto du = static_cast<std::size_t>(d);
    const auto owned = spec.stages_of_device(d);
    if (costs.t_precondition > 0.0) {
      const double dur =
          costs.t_precondition * static_cast<double>(owned.size());
      res.timeline.add(Interval{.device = du,
                                .start = free_at[du],
                                .end = free_at[du] + dur,
                                .kind = WorkKind::kPrecondition});
      free_at[du] += dur;
    }
    if (costs.t_optimizer > 0.0) {
      const double dur = costs.t_optimizer * static_cast<double>(owned.size());
      res.timeline.add(Interval{.device = du,
                                .start = free_at[du],
                                .end = free_at[du] + dur,
                                .kind = WorkKind::kOptimizerUpdate});
      free_at[du] += dur;
    }
  }
  res.step_time = *std::max_element(free_at.begin(), free_at.end());
  return res;
}

double total_bubble_time(const StepSimResult& step) {
  double total = 0.0;
  for (std::size_t d = 0; d < step.timeline.n_devices(); ++d)
    total += step.timeline.bubble_time(d, 0.0, step.pipe_makespan);
  return total;
}

}  // namespace pf
