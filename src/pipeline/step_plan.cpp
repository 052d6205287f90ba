#include "src/pipeline/step_plan.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <queue>
#include <tuple>
#include <utility>

#include "src/common/check.h"
#include "src/pipeline/simulator.h"

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

std::vector<std::vector<PipeOp>> plan_device_order(const ScheduleSpec& spec) {
  // Static orders are honored exactly (head-of-line chaining); dynamic
  // schedules run greedily with the order as dispatch priority — which is
  // what `dynamic_order` means in the simulator too.
  std::vector<std::vector<PipeOp>> order =
      spec.dynamic_order ? simulate_step(spec, StepCosts{}).realized_programs
                         : spec.programs;
  normalize_backward_order(order);
  return order;
}

KfacFactors::KfacFactors(const std::vector<std::size_t>& counts) {
  input_owner.reserve(counts.size());
  for (const std::size_t n : counts) {
    std::vector<std::size_t> own(n);
    for (std::size_t f = 0; f < n; ++f) own[f] = f;
    input_owner.push_back(std::move(own));
  }
}

PlanReplay replay_plan(const StepPlan& plan, const std::vector<double>& seconds,
                       double handoff, std::size_t n_threads) {
  const auto& tasks = plan.tasks;
  const std::size_t n = tasks.size();
  PF_CHECK(n > 0) << "empty step plan";
  PF_CHECK(seconds.size() == n)
      << seconds.size() << " durations for " << n << " plan tasks";
  PF_CHECK(n_threads >= 1);
  PF_CHECK(handoff >= 0.0) << "negative handoff " << handoff;

  std::vector<std::vector<std::size_t>> children(n);
  std::vector<std::size_t> pending(n, 0);
  int max_resource = -1;
  for (std::size_t i = 0; i < n; ++i) {
    PF_CHECK(tasks[i].lane < plan.n_lanes)
        << "task " << i << " on lane " << tasks[i].lane << " of "
        << plan.n_lanes;
    PF_CHECK(seconds[i] >= 0.0)
        << "task " << i << " (" << work_kind_name(tasks[i].kind)
        << ") has negative duration " << seconds[i];
    max_resource = std::max(max_resource, tasks[i].resource);
    pending[i] = tasks[i].deps.size();
    for (const std::size_t d : tasks[i].deps) {
      PF_CHECK(d < n) << "task " << i << " depends on missing task " << d;
      children[d].push_back(i);
    }
  }

  PlanReplay out;
  out.start.assign(n, 0.0);
  out.end.assign(n, 0.0);
  // Tasks whose deps have all finished but that have not started yet.
  std::vector<std::size_t> open;
  for (std::size_t i = 0; i < n; ++i)
    if (pending[i] == 0) open.push_back(i);
  std::vector<double> ready(n, 0.0);
  std::vector<char> lane_busy(plan.n_lanes, 0);
  std::vector<char> res_busy(static_cast<std::size_t>(max_resource + 1), 0);
  // Completion events, earliest end first.
  using Event = std::pair<double, std::size_t>;
  std::priority_queue<Event, std::vector<Event>, std::greater<Event>> running;
  std::size_t free_threads = n_threads;
  std::size_t remaining = n;
  double now = 0.0;

  auto startable = [&](std::size_t i) {
    return ready[i] <= now && !lane_busy[tasks[i].lane] &&
           (tasks[i].resource < 0 ||
            !res_busy[static_cast<std::size_t>(tasks[i].resource)]);
  };
  auto dispatch = [&] {
    while (free_threads > 0) {
      std::size_t best = open.size();
      for (std::size_t k = 0; k < open.size(); ++k) {
        const std::size_t i = open[k];
        if (!startable(i)) continue;
        if (best == open.size() ||
            std::tie(tasks[i].priority, i) <
                std::tie(tasks[open[best]].priority, open[best]))
          best = k;
      }
      if (best == open.size()) return;
      const std::size_t i = open[best];
      open[best] = open.back();
      open.pop_back();
      lane_busy[tasks[i].lane] = 1;
      if (tasks[i].resource >= 0)
        res_busy[static_cast<std::size_t>(tasks[i].resource)] = 1;
      out.start[i] = now;
      out.end[i] = now + seconds[i];
      running.push({out.end[i], i});
      --free_threads;
    }
  };

  dispatch();
  while (remaining > 0) {
    double next = std::numeric_limits<double>::infinity();
    if (!running.empty()) next = running.top().first;
    for (const std::size_t i : open)
      if (ready[i] > now) next = std::min(next, ready[i]);
    if (!std::isfinite(next)) {
      std::size_t stuck = 0;
      while (pending[stuck] == 0) ++stuck;
      PF_CHECK(false) << "step plan deadlocked: " << remaining
                      << " tasks wait on a dependency cycle (e.g. task "
                      << stuck << ", " << work_kind_name(tasks[stuck].kind)
                      << " stage " << tasks[stuck].stage << " micro "
                      << tasks[stuck].micro << " on lane "
                      << tasks[stuck].lane << ")";
    }
    now = next;
    while (!running.empty() && running.top().first <= now) {
      const std::size_t i = running.top().second;
      running.pop();
      lane_busy[tasks[i].lane] = 0;
      if (tasks[i].resource >= 0)
        res_busy[static_cast<std::size_t>(tasks[i].resource)] = 0;
      ++free_threads;
      --remaining;
      out.makespan = std::max(out.makespan, out.end[i]);
      for (const std::size_t c : children[i]) {
        const double lat = tasks[c].lane != tasks[i].lane ? handoff : 0.0;
        ready[c] = std::max(ready[c], out.end[i] + lat);
        if (--pending[c] == 0) open.push_back(c);
      }
    }
    dispatch();
  }

  out.lanes.resize(plan.n_lanes);
  for (std::size_t i = 0; i < n; ++i) out.lanes[tasks[i].lane].push_back(i);
  for (auto& ids : out.lanes)
    std::sort(ids.begin(), ids.end(), [&](std::size_t a, std::size_t b) {
      return std::tie(out.start[a], out.end[a], a) <
             std::tie(out.start[b], out.end[b], b);
    });
  return out;
}

Timeline replay_timeline(const StepPlan& plan, const PlanReplay& replay) {
  Timeline tl(plan.n_lanes);
  for (const auto& ids : replay.lanes)
    for (const std::size_t i : ids) {
      const PlannedTask& t = plan.tasks[i];
      tl.add(Interval{.device = t.lane,
                      .start = replay.start[i],
                      .end = replay.end[i],
                      .kind = t.kind,
                      .stage = t.stage,
                      .micro = t.micro,
                      .layer = t.layer,
                      .factor = t.factor});
    }
  return tl;
}

StepPlan build_step_plan(const ScheduleSpec& spec,
                         const std::vector<std::vector<PipeOp>>& device_order,
                         const KfacFactors& factors, bool curv_step,
                         bool inv_step, int micros_per_step) {
  const int S = spec.n_stages;
  const int N = spec.n_micro;
  const bool split = spec.split_backward;
  const auto& owners = factors.input_owner;
  PF_CHECK(owners.size() == static_cast<std::size_t>(S))
      << "the K-FAC factors must have one entry per model stage";
  const int per_step = micros_per_step > 0 ? micros_per_step : N;
  PF_CHECK(micros_per_step >= 0 && N % per_step == 0)
      << micros_per_step << " micros per step do not divide " << N;
  const int n_steps = N / per_step;
  PF_CHECK(n_steps == 1 ||
           (!spec.dynamic_order && !split &&
            std::all_of(owners.begin(), owners.end(),
                        [](const auto& o) { return o.empty(); })))
      << spec.name
      << ": a multi-step plan needs static, unsplit programs and no K-FAC";

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
  //   static schedules:   the device's previous task     [event order]
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
    const std::size_t id = add_task(std::move(t));
    op_task[op_key(op)] = id;
    return id;
  };

  // A stream's step tail for the stage of step-closing backward `close`:
  // gradient finalization, then the stage's optimizer update. Returns the
  // update's index.
  auto add_step_tail = [&](const PipeOp& close, long priority,
                           std::vector<std::size_t> deps) {
    PlannedTask sync;
    sync.lane = static_cast<std::size_t>(spec.device_of(0, close.stage));
    sync.priority = priority;
    sync.deps = std::move(deps);
    sync.kind = WorkKind::kSyncGrad;
    sync.stage = close.stage;
    sync.step = close.micro / per_step;
    PlannedTask update = sync;
    update.resource = close.stage;
    update.deps = {add_task(std::move(sync))};
    update.kind = WorkKind::kOptimizerUpdate;
    return add_task(std::move(update));
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
    // depends on the task before it on its device (head-of-line), so the
    // realized order IS the planned order. Creation sweeps the programs; a
    // schedule whose program fights the gradient-fold order
    // (normalize_backward_order prevents this for the built-ins) fails
    // loudly instead of deadlocking.
    //
    // A stream's mid-plan step tail is created just before the device's
    // next op, with that op's deps; the op then follows the tail instead.
    std::vector<std::size_t> next_in_prog(device_order.size(), 0);
    std::vector<std::size_t> lane_last(device_order.size(), 0);
    std::vector<const PipeOp*> tail_due(device_order.size(), nullptr);
    std::size_t remaining = planned_ops;
    while (remaining > 0) {
      bool progress = false;
      for (std::size_t d = 0; d < device_order.size(); ++d) {
        while (next_in_prog[d] < device_order[d].size()) {
          const PipeOp& op = device_order[d][next_in_prog[d]];
          std::vector<std::size_t> dep_ids;
          bool ready = true;
          for (const PipeOp& dep : op_deps(op)) {
            const auto it = op_task.find(op_key(dep));
            if (it == op_task.end()) {
              ready = false;
              break;
            }
            dep_ids.push_back(it->second);
          }
          if (!ready) break;
          if (next_in_prog[d] > 0) {
            std::size_t prev = lane_last[d];
            if (tail_due[d] != nullptr) {
              std::vector<std::size_t> tail_deps = dep_ids;
              tail_deps.push_back(prev);
              prev = add_step_tail(*tail_due[d], op_priority.at(op_key(op)),
                                   std::move(tail_deps));
              tail_due[d] = nullptr;
            }
            dep_ids.push_back(prev);
          }
          lane_last[d] = make_op_task(op, std::move(dep_ids));
          if (op.type == OpType::kBackward && (op.micro + 1) % per_step == 0 &&
              op.micro + 1 < N)
            tail_due[d] = &op;
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
  // only when none of its pipeline ops is runnable — the same floating rule
  // simulate_step's graph uses.
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
    t.step = n_steps - 1;
    grad_final[static_cast<std::size_t>(s)] = add_task(std::move(t));
  }

  // K-FAC work, BubbleTask-shaped (the executable analog of
  // core/kfac_work.cpp's generation rules + core/bubble_assigner's
  // readiness dispatch): curvature per (factor, micro) chained in
  // ascending micro order, one commit + inversion pair per factor, and a
  // precondition per factor gated on the stage's final gradient. A factor
  // that reads another's input has no curvature-A chain; its commit follows
  // its input owner's. Priorities share the tier fairly across stages (see
  // kKfacPriorityBase), ranked once every stage's sequence is known.
  std::vector<std::vector<std::size_t>> stage_precond(
      static_cast<std::size_t>(S));
  std::vector<std::vector<std::size_t>> kfac_seq(static_cast<std::size_t>(S));

  for (int s = 0; s < S; ++s) {
    const std::vector<std::size_t>& owner = owners[static_cast<std::size_t>(s)];
    const std::size_t n_factors = owner.size();
    if (n_factors == 0) continue;
    const auto lane = static_cast<std::size_t>(spec.device_of(0, s));
    auto kfac_task = [&](PlannedTask t) {
      const std::size_t id = add_task(std::move(t));
      kfac_seq[static_cast<std::size_t>(s)].push_back(id);
      return id;
    };
    std::vector<std::size_t> commit_of(n_factors, 0);
    for (std::size_t f = 0; f < n_factors; ++f) {
      PF_CHECK(owner[f] <= f && owner[owner[f]] == owner[f])
          << "stage " << s << ": factor " << f << " reads the input of "
          << owner[f] << ", which is not an earlier input owner";
      const bool own_a = owner[f] == f;
      // Trace labels only (block, linear-within-block); the 6-per-block
      // layout is asserted loudly by BertStagePartition.
      PlannedTask label;
      label.stage = s;
      label.layer = static_cast<int>(f / 6);
      label.factor = static_cast<int>(f % 6);
      std::size_t commit_id = 0;
      bool has_commit = false;
      if (curv_step) {
        // Curvature per (factor, micro): A after the forward, B after the
        // backward, each chained per factor in ascending micro order so the
        // pending sums fold in the serial order.
        std::size_t prev_a = 0, prev_b = 0;
        for (int m = 0; m < N; ++m) {
          const int pl = pl_of(m);
          PlannedTask c = label;
          c.lane = static_cast<std::size_t>(spec.device_of(pl, s));
          c.resource = s;
          c.micro = m;
          if (own_a) {
            PlannedTask ca = c;
            ca.deps = {op_task.at(op_key({OpType::kForward, pl, s, m}))};
            if (m > 0) ca.deps.push_back(prev_a);
            ca.kind = WorkKind::kCurvatureA;
            prev_a = kfac_task(std::move(ca));
          }
          c.deps = {op_task.at(op_key({OpType::kBackward, pl, s, m}))};
          if (m > 0) c.deps.push_back(prev_b);
          c.kind = WorkKind::kCurvatureB;
          prev_b = kfac_task(std::move(c));
        }
        // The EMA fold merges the factor's per-micro contributions before
        // inversion — the single-process analog of sync-curvature, and
        // distinct from the curvature GEMMs in the executed trace.
        PlannedTask cm = label;
        cm.lane = lane;
        cm.deps = {own_a ? prev_a : commit_of[owner[f]], prev_b};
        cm.kind = WorkKind::kSyncCurvature;
        commit_id = commit_of[f] = kfac_task(std::move(cm));
        has_commit = true;
      }
      std::size_t precond_gate = 0;
      bool has_gate = false;
      if (inv_step) {
        PlannedTask ia = label;
        ia.lane = lane;
        if (has_commit) ia.deps.push_back(commit_id);
        ia.kind = WorkKind::kInversionA;
        PlannedTask ib = ia;
        ib.deps = {kfac_task(std::move(ia))};
        ib.kind = WorkKind::kInversionB;
        precond_gate = kfac_task(std::move(ib));
        has_gate = true;
      } else if (has_commit) {
        precond_gate = commit_id;
        has_gate = true;
      }
      // Precondition every step (stale inverses allowed), after the stage's
      // gradients are final.
      PlannedTask pc = label;
      pc.lane = lane;
      pc.deps = {grad_final[static_cast<std::size_t>(s)]};
      if (has_gate) pc.deps.push_back(precond_gate);
      pc.kind = WorkKind::kPrecondition;
      stage_precond[static_cast<std::size_t>(s)].push_back(
          kfac_task(std::move(pc)));
    }
  }

  // Fair share: the i-th of stage s's n_s K-FAC tasks ranks by i / n_s, ties
  // by stage, so every stage's sequence advances at the same fraction.
  struct Rank {
    std::size_t i, n, stage, id;
  };
  std::vector<Rank> ranks;
  for (std::size_t st = 0; st < kfac_seq.size(); ++st)
    for (std::size_t i = 0; i < kfac_seq[st].size(); ++i)
      ranks.push_back({i, kfac_seq[st].size(), st, kfac_seq[st][i]});
  std::sort(ranks.begin(), ranks.end(), [](const Rank& a, const Rank& b) {
    return std::make_pair(a.i * b.n, a.stage) <
           std::make_pair(b.i * a.n, b.stage);
  });
  for (std::size_t r = 0; r < ranks.size(); ++r)
    plan.tasks[ranks[r].id].priority =
        kKfacPriorityBase + static_cast<long>(r);

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
    t.step = n_steps - 1;
    add_task(std::move(t));
  }

  return plan;
}

}  // namespace pf
