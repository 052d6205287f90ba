#include "src/pipeline/async_pipeline.h"

#include <algorithm>
#include <map>

#include "src/common/check.h"
#include "src/pipeline/schedule_registry.h"

namespace pf {

AsyncPipelineReport simulate_async_1f1b(int n_stages, int n_micro,
                                        int iterations,
                                        const StepCosts& costs) {
  PF_CHECK(n_stages >= 2 && n_micro >= 1 && iterations >= 2);
  // The flushless stream of `iterations` mini-batches is exactly the
  // registry's "1f1b-flushless" program over iterations·n_micro
  // micro-batches (backward of batch i overlaps forward of batch i+1),
  // with device-local updates inline.
  const int total_micros = n_micro * iterations;
  ScheduleParams p;
  p.n_stages = n_stages;
  p.n_micro = total_micros;
  const auto spec = build_schedule("1f1b-flushless", p);
  PF_ASSERT(!traits_of("1f1b-flushless").flush);

  // Each device (one stage) updates its weights after every n_micro-th
  // backward. The update takes the program slot and the deps of the op
  // after it, so it starts when that op could, and that op then waits for
  // it.
  SimGraph g = build_sim_graph(spec, costs);
  std::map<long, std::size_t> task_of;
  for (std::size_t i = 0; i < g.plan.tasks.size(); ++i)
    task_of[op_key(g.plan.tasks[i].op)] = i;
  for (std::size_t d = 0; d < spec.programs.size(); ++d) {
    const auto& prog = spec.programs[d];
    int backwards = 0;
    for (std::size_t j = 0; j < prog.size(); ++j) {
      if (prog[j].type != OpType::kBackward || ++backwards % n_micro != 0)
        continue;
      PlannedTask update;
      update.lane = d;
      update.kind = WorkKind::kOptimizerUpdate;
      update.priority = static_cast<long>(j + 1);
      const std::size_t id = g.plan.tasks.size();
      if (j + 1 < prog.size()) {
        PlannedTask& next = g.plan.tasks[task_of.at(op_key(prog[j + 1]))];
        update.deps = next.deps;
        next.deps.push_back(id);
      } else {
        update.deps = {task_of.at(op_key(prog[j]))};
      }
      g.plan.tasks.push_back(std::move(update));
      g.seconds.push_back(costs.t_optimizer);
    }
  }
  auto res = replay_sim_graph(g, costs.t_p2p);

  AsyncPipelineReport rep;
  rep.stream_makespan = res.pipe_makespan;

  // Steady-state window: drop the first and last mini-batch worth of time.
  const double t0 = rep.stream_makespan / static_cast<double>(iterations);
  const double t1 = rep.stream_makespan - t0;
  rep.utilization = res.timeline.utilization(t0, t1);
  rep.throughput_micros_per_time =
      static_cast<double>(total_micros) / rep.stream_makespan;

  // Realized staleness: forward(s, m) of mini-batch k = m / n_micro uses
  // the weights after `u` device-local updates, where u = number of update
  // intervals on that device before the op started. Staleness = k − u.
  rep.staleness_per_stage.assign(static_cast<std::size_t>(n_stages), 0.0);
  for (int s = 0; s < n_stages; ++s) {
    const auto dev = static_cast<std::size_t>(s);
    // Collect update completion times on this device.
    std::vector<double> update_ends;
    for (const auto& iv : res.timeline.device_intervals(dev))
      if (iv.kind == WorkKind::kOptimizerUpdate)
        update_ends.push_back(iv.end);
    double worst = 0.0;
    for (int m = 0; m < total_micros; ++m) {
      const double start = res.op_start({OpType::kForward, 0, s, m});
      const auto k = static_cast<double>(m / n_micro);
      const double updates_done = static_cast<double>(
          std::upper_bound(update_ends.begin(), update_ends.end(), start) -
          update_ends.begin());
      worst = std::max(worst, k - updates_done);
    }
    rep.staleness_per_stage[static_cast<std::size_t>(s)] = worst;
    rep.max_staleness = std::max(rep.max_staleness, worst);
  }
  rep.timeline = std::move(res.timeline);
  return rep;
}

}  // namespace pf
