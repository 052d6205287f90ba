#include "src/pipeline/async_pipeline.h"

#include <algorithm>

#include "src/common/check.h"
#include "src/pipeline/schedule_registry.h"
#include "src/pipeline/step_plan.h"

namespace pf {

AsyncPipelineReport simulate_async_1f1b(int n_stages, int n_micro,
                                        int iterations,
                                        const StepCosts& costs) {
  PF_CHECK(n_stages >= 2 && n_micro >= 1 && iterations >= 2);
  PF_CHECK(costs.t_forward > 0 && costs.t_backward > 0);
  // The flushless stream of `iterations` mini-batches is the registry's
  // "1f1b-flushless" program over iterations·n_micro micro-batches
  // (backward of batch i overlaps forward of batch i+1) — the same plan
  // PipelineRuntime::run_flushless() executes, with each stage's update
  // spliced into its device chain after every n_micro-th backward.
  const int total_micros = n_micro * iterations;
  ScheduleParams p;
  p.n_stages = n_stages;
  p.n_micro = total_micros;
  const auto spec = build_schedule("1f1b-flushless", p);
  const StepPlan plan = build_step_plan(
      spec, plan_device_order(spec),
      std::vector<std::size_t>(static_cast<std::size_t>(n_stages), 0),
      /*curv_step=*/false, /*inv_step=*/false, n_micro);

  // The stream's sync-grad is the stage-local 1/n_micro fold, not an
  // allreduce: it takes no time here.
  std::vector<double> seconds;
  seconds.reserve(plan.tasks.size());
  for (const PlannedTask& t : plan.tasks) {
    switch (t.kind) {
      case WorkKind::kForward:
        seconds.push_back(costs.forward_cost(t.stage));
        break;
      case WorkKind::kBackward:
        seconds.push_back(costs.backward_cost(t.stage));
        break;
      case WorkKind::kOptimizerUpdate:
        seconds.push_back(costs.t_optimizer);
        break;
      default:
        seconds.push_back(0.0);
    }
  }
  const PlanReplay r =
      replay_plan(plan, seconds, costs.t_p2p, plan.n_lanes);

  AsyncPipelineReport rep;
  for (std::size_t i = 0; i < plan.tasks.size(); ++i)
    if (plan.tasks[i].is_op)
      rep.stream_makespan = std::max(rep.stream_makespan, r.end[i]);
  rep.timeline = replay_timeline(plan, r);

  // Steady-state window: drop the first and last mini-batch worth of time.
  const double t0 = rep.stream_makespan / static_cast<double>(iterations);
  const double t1 = rep.stream_makespan - t0;
  rep.utilization = rep.timeline.utilization(t0, t1);
  rep.throughput_micros_per_time =
      static_cast<double>(total_micros) / rep.stream_makespan;

  // Realized staleness: forward(s, m) of mini-batch k = m / n_micro uses
  // the weights after `u` device-local updates. Staleness = k − u. A
  // stage's ops and updates form one device chain in plan order, so the
  // updates before the forward in plan order are exactly those that ended
  // before it started.
  rep.staleness_per_stage.assign(static_cast<std::size_t>(n_stages), 0.0);
  std::vector<int> updates(static_cast<std::size_t>(n_stages), 0);
  for (const PlannedTask& t : plan.tasks) {
    const auto s = static_cast<std::size_t>(t.stage);
    if (t.kind == WorkKind::kOptimizerUpdate) ++updates[s];
    if (t.kind != WorkKind::kForward) continue;
    const auto stale = static_cast<double>(t.micro / n_micro - updates[s]);
    rep.staleness_per_stage[s] = std::max(rep.staleness_per_stage[s], stale);
    rep.max_staleness = std::max(rep.max_staleness, stale);
  }
  return rep;
}

}  // namespace pf
