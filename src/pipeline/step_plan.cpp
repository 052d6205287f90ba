#include "src/pipeline/step_plan.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/common/check.h"

namespace pf {

bool is_kfac_kind(WorkKind k) {
  switch (k) {
    case WorkKind::kCurvatureA:
    case WorkKind::kCurvatureB:
    case WorkKind::kSyncCurvature:
    case WorkKind::kInversionA:
    case WorkKind::kInversionB:
    case WorkKind::kPrecondition:
      return true;
    default:
      return false;
  }
}

void normalize_backward_order(std::vector<std::vector<PipeOp>>& programs) {
  for (auto& prog : programs) {
    std::map<std::pair<int, int>, std::vector<std::size_t>> group_slots;
    for (std::size_t i = 0; i < prog.size(); ++i)
      if (prog[i].type == OpType::kBackward)
        group_slots[{prog[i].pipeline, prog[i].stage}].push_back(i);
    for (auto& [key, slots] : group_slots) {
      std::vector<int> micros;
      micros.reserve(slots.size());
      for (const std::size_t p : slots) micros.push_back(prog[p].micro);
      std::sort(micros.begin(), micros.end());
      for (std::size_t k = 0; k < slots.size(); ++k)
        prog[slots[k]].micro = micros[k];
    }
  }
}

StepPlan build_step_plan(const ScheduleSpec& spec,
                         const std::vector<std::vector<PipeOp>>& device_order,
                         const std::vector<std::size_t>& factors_per_stage,
                         bool curv_step, bool inv_step) {
  const int S = spec.n_stages;
  const int N = spec.n_micro;
  const bool split = spec.split_backward;
  PF_CHECK(factors_per_stage.size() == static_cast<std::size_t>(S))
      << "factors_per_stage must have one entry per model stage";

  StepPlan plan;
  plan.n_lanes = static_cast<std::size_t>(spec.n_devices);
  plan.split_backward = split;

  std::vector<int> pipeline_of_micro(static_cast<std::size_t>(N), 0);
  for (int pl = 0; pl < spec.n_pipelines; ++pl)
    for (const int m : spec.micros_of_pipeline[static_cast<std::size_t>(pl)])
      pipeline_of_micro[static_cast<std::size_t>(m)] = pl;
  auto pl_of = [&](int m) {
    return pipeline_of_micro[static_cast<std::size_t>(m)];
  };

  auto add_task = [&](PlannedTask t) -> std::size_t {
    plan.tasks.push_back(std::move(t));
    return plan.tasks.size() - 1;
  };

  // Event-order position of every op on its device = its dispatch priority.
  std::map<long, long> op_priority;
  std::size_t planned_ops = 0;
  for (const auto& prog : device_order) {
    for (std::size_t i = 0; i < prog.size(); ++i)
      op_priority[op_key(prog[i])] = static_cast<long>(i);
    planned_ops += prog.size();
  }
  std::size_t n_w_ops = 0;
  for (const auto& op : spec.all_ops())
    if (op.type == OpType::kBackwardWeight) ++n_w_ops;
  PF_CHECK(planned_ops == spec.all_ops().size() - n_w_ops)
      << "event order does not cover the schedule's F/B ops";

  std::map<long, std::size_t> op_task;  // op_key -> plan task index

  // Pipeline-op dependencies, expressed over PipeOps:
  //   forward(pl, s, m):  forward(pl, s-1, m)            [activation]
  //   backward(pl, s, m): forward(pl, s, m)              [stashed caches]
  //                       backward(pl, s+1, m)           [grad-activation]
  //                       backward(*, s, prev micro)     [grad fold order]
  //   static schedules:   the device's previous program op [event order]
  auto op_deps = [&](const PipeOp& op) {
    std::vector<PipeOp> deps;
    if (op.type == OpType::kForward) {
      if (op.stage > 0)
        deps.push_back({OpType::kForward, op.pipeline, op.stage - 1, op.micro});
    } else {
      deps.push_back({OpType::kForward, op.pipeline, op.stage, op.micro});
      if (op.stage + 1 < S)
        deps.push_back(
            {OpType::kBackward, op.pipeline, op.stage + 1, op.micro});
      if (op.micro > 0)
        deps.push_back(
            {OpType::kBackward, pl_of(op.micro - 1), op.stage, op.micro - 1});
    }
    return deps;
  };

  auto make_op_task = [&](const PipeOp& op, std::vector<std::size_t> deps) {
    PlannedTask t;
    t.lane = static_cast<std::size_t>(spec.device_of(op.pipeline, op.stage));
    t.priority = op_priority.at(op_key(op));
    t.resource = op.stage;
    t.deps = std::move(deps);
    t.kind = op.type == OpType::kForward ? WorkKind::kForward
                                         : WorkKind::kBackward;
    t.stage = op.stage;
    t.micro = op.micro;
    t.op = op;
    t.is_op = true;
    op_task[op_key(op)] = add_task(std::move(t));
  };

  // Create op tasks in a topological order (the executor requires
  // dependencies to exist before their dependents).
  if (spec.dynamic_order) {
    // Greedy schedules execute by priority, not program chains, so any
    // topological order works for creation: forwards by (micro, stage),
    // then backwards by (micro asc, stage desc) — every dependency above
    // (upstream forward, own forward, downstream backward, previous-micro
    // backward) precedes its dependent in this order.
    for (int m = 0; m < N; ++m)
      for (int s = 0; s < S; ++s) {
        const PipeOp op{OpType::kForward, pl_of(m), s, m};
        std::vector<std::size_t> dep_ids;
        for (const PipeOp& dep : op_deps(op))
          dep_ids.push_back(op_task.at(op_key(dep)));
        make_op_task(op, std::move(dep_ids));
      }
    for (int m = 0; m < N; ++m)
      for (int s = S - 1; s >= 0; --s) {
        const PipeOp op{OpType::kBackward, pl_of(m), s, m};
        std::vector<std::size_t> dep_ids;
        for (const PipeOp& dep : op_deps(op))
          dep_ids.push_back(op_task.at(op_key(dep)));
        make_op_task(op, std::move(dep_ids));
      }
  } else {
    // Static schedules honor their programs exactly: each op additionally
    // depends on the previous op of its device program (head-of-line), so
    // the realized order IS the planned order. Creation sweeps the
    // programs; a schedule whose program fights the gradient-fold order
    // (normalize_backward_order prevents this for the built-ins) fails
    // loudly instead of deadlocking.
    std::vector<std::size_t> next_in_prog(device_order.size(), 0);
    std::size_t remaining = planned_ops;
    while (remaining > 0) {
      bool progress = false;
      for (std::size_t d = 0; d < device_order.size(); ++d) {
        while (next_in_prog[d] < device_order[d].size()) {
          const PipeOp& op = device_order[d][next_in_prog[d]];
          std::vector<PipeOp> deps = op_deps(op);
          if (next_in_prog[d] > 0)
            deps.push_back(device_order[d][next_in_prog[d] - 1]);
          std::vector<std::size_t> dep_ids;
          bool ready = true;
          for (const PipeOp& dep : deps) {
            const auto it = op_task.find(op_key(dep));
            if (it == op_task.end()) {
              ready = false;
              break;
            }
            dep_ids.push_back(it->second);
          }
          if (!ready) break;
          make_op_task(op, std::move(dep_ids));
          ++next_in_prog[d];
          --remaining;
          progress = true;
        }
      }
      PF_CHECK(progress)
          << spec.name << ": event order and gradient-fold order form a cycle";
    }
  }

  // Deferred W passes (split_backward): one task per (stage, micro),
  // chained per stage in ascending global micro order — the same fold
  // order the B chain enforces, so every dW coordinate accumulates in the
  // serial trainer's sequence. Deps: the micro's own B pass (which
  // harvested the {a_l, e_l} caches) plus the chain predecessor. Priority
  // kWeightPriorityBase sits above every program position: a lane runs a W
  // only when none of its pipeline ops is runnable, exactly like the
  // simulator's floating W pools fill realized idle gaps.
  if (split) {
    for (int s = 0; s < S; ++s) {
      std::size_t prev_w = 0;
      for (int m = 0; m < N; ++m) {
        const int pl = pl_of(m);
        const PipeOp op{OpType::kBackwardWeight, pl, s, m};
        PlannedTask t;
        t.lane = static_cast<std::size_t>(spec.device_of(pl, s));
        t.priority = kWeightPriorityBase + m;
        t.resource = s;
        t.deps = {op_task.at(op_key({OpType::kBackward, pl, s, m}))};
        if (m > 0) t.deps.push_back(prev_w);
        t.kind = WorkKind::kBackwardWeight;
        t.stage = s;
        t.micro = m;
        t.op = op;
        t.is_op = true;
        prev_w = add_task(std::move(t));
        op_task[op_key(op)] = prev_w;
      }
    }
  }

  std::vector<std::size_t> last_bwd(static_cast<std::size_t>(S), 0);
  for (int s = 0; s < S; ++s) {
    const int m = N - 1;
    // Under split_backward the gradients are final only after the stage's
    // last deferred W pass; its chain already folds every earlier W.
    last_bwd[static_cast<std::size_t>(s)] = op_task.at(op_key(
        {split ? OpType::kBackwardWeight : OpType::kBackward, pl_of(m), s,
         m}));
  }

  // Step tail per stage: owner-computes gradient finalization (the serial
  // trainer's g *= 1/n_micro), then K-FAC preconditions, then the stage's
  // base optimizer step.
  std::vector<std::size_t> grad_final(static_cast<std::size_t>(S), 0);
  for (int s = 0; s < S; ++s) {
    PlannedTask t;
    t.lane = static_cast<std::size_t>(spec.device_of(0, s));
    t.priority = kTailPriorityBase + s;
    t.resource = -1;
    t.deps = {last_bwd[static_cast<std::size_t>(s)]};
    t.kind = WorkKind::kSyncGrad;
    t.stage = s;
    grad_final[static_cast<std::size_t>(s)] = add_task(std::move(t));
  }

  // K-FAC work, BubbleTask-shaped (the executable analog of
  // core/kfac_work.cpp's generation rules + core/bubble_assigner's
  // readiness dispatch): curvature per (factor, micro) chained in
  // ascending micro order, one commit + inversion pair per factor, and a
  // precondition per factor gated on the stage's final gradient.
  std::vector<std::vector<std::size_t>> stage_precond(
      static_cast<std::size_t>(S));
  long kfac_seq = 0;
  auto kfac_priority = [&] { return kKfacPriorityBase + kfac_seq++; };

  for (int s = 0; s < S; ++s) {
    const std::size_t n_factors = factors_per_stage[static_cast<std::size_t>(s)];
    if (n_factors == 0) continue;
    const auto owner = static_cast<std::size_t>(spec.device_of(0, s));
    for (std::size_t f = 0; f < n_factors; ++f) {
      // Trace labels only (block, linear-within-block); the 6-per-block
      // layout is asserted loudly by BertStagePartition.
      const int layer = static_cast<int>(f / 6);
      const int factor = static_cast<int>(f % 6);
      std::size_t commit_id = 0;
      bool has_commit = false;
      if (curv_step) {
        // Curvature per (factor, micro): A after the forward, B after the
        // backward, each chained per factor in ascending micro order so the
        // pending sums fold in the serial order.
        std::size_t prev_a = 0, prev_b = 0;
        bool chain_a = false, chain_b = false;
        for (int m = 0; m < N; ++m) {
          const int pl = pl_of(m);
          PlannedTask ca;
          ca.lane = static_cast<std::size_t>(spec.device_of(pl, s));
          ca.priority = kfac_priority();
          ca.resource = s;
          ca.deps = {op_task.at(op_key({OpType::kForward, pl, s, m}))};
          if (chain_a) ca.deps.push_back(prev_a);
          ca.kind = WorkKind::kCurvatureA;
          ca.stage = s;
          ca.micro = m;
          ca.layer = layer;
          ca.factor = factor;
          PlannedTask cb = ca;
          prev_a = add_task(std::move(ca));
          chain_a = true;

          cb.priority = kfac_priority();
          cb.deps = {op_task.at(op_key({OpType::kBackward, pl, s, m}))};
          if (chain_b) cb.deps.push_back(prev_b);
          cb.kind = WorkKind::kCurvatureB;
          prev_b = add_task(std::move(cb));
          chain_b = true;
        }
        // The EMA fold merges the factor's per-micro contributions before
        // inversion — the single-process analog of sync-curvature, and
        // distinct from the curvature GEMMs in the executed trace.
        PlannedTask cm;
        cm.lane = owner;
        cm.priority = kfac_priority();
        cm.resource = -1;
        cm.deps = {prev_a, prev_b};
        cm.kind = WorkKind::kSyncCurvature;
        cm.stage = s;
        cm.layer = layer;
        cm.factor = factor;
        commit_id = add_task(std::move(cm));
        has_commit = true;
      }
      std::size_t precond_gate = 0;
      bool has_gate = false;
      if (inv_step) {
        PlannedTask ia;
        ia.lane = owner;
        ia.priority = kfac_priority();
        ia.resource = -1;
        if (has_commit) ia.deps.push_back(commit_id);
        ia.kind = WorkKind::kInversionA;
        ia.stage = s;
        ia.layer = layer;
        ia.factor = factor;
        PlannedTask ib = ia;
        const std::size_t inv_a = add_task(std::move(ia));
        ib.priority = kfac_priority();
        ib.deps = {inv_a};
        ib.kind = WorkKind::kInversionB;
        precond_gate = add_task(std::move(ib));
        has_gate = true;
      } else if (has_commit) {
        precond_gate = commit_id;
        has_gate = true;
      }
      // Precondition every step (stale inverses allowed), after the stage's
      // gradients are final.
      PlannedTask pc;
      pc.lane = owner;
      pc.priority = kfac_priority();
      pc.resource = -1;
      pc.deps = {grad_final[static_cast<std::size_t>(s)]};
      if (has_gate) pc.deps.push_back(precond_gate);
      pc.kind = WorkKind::kPrecondition;
      pc.stage = s;
      pc.layer = layer;
      pc.factor = factor;
      stage_precond[static_cast<std::size_t>(s)].push_back(
          add_task(std::move(pc)));
    }
  }

  // Per-stage optimizer update closes the step.
  for (int s = 0; s < S; ++s) {
    PlannedTask t;
    t.lane = static_cast<std::size_t>(spec.device_of(0, s));
    t.priority = kTailPriorityBase + S + s;
    t.resource = s;
    t.deps = {grad_final[static_cast<std::size_t>(s)]};
    for (const std::size_t p : stage_precond[static_cast<std::size_t>(s)])
      t.deps.push_back(p);
    t.kind = WorkKind::kOptimizerUpdate;
    t.stage = s;
    add_task(std::move(t));
  }

  return plan;
}

}  // namespace pf
