#include "src/train/pipeline_runtime.h"

#include <algorithm>
#include <utility>

#include "src/comm/tensor_wire.h"
#include "src/common/check.h"
#include "src/common/strings.h"
#include "src/train/plan_binder.h"

namespace pf {

PipelineRuntime::PipelineRuntime(BertModel& model, const MlmBatcher& batcher,
                                 const PipelineRuntimeConfig& cfg)
    : cfg_(cfg),
      spec_(build_runtime_schedule(cfg)),
      partition_(model, spec_.n_stages) {
  const ScheduleTraits& traits = traits_of(cfg_.schedule);
  if (!traits.flush) {
    // Flushless schedules stream through run_flushless() (stale-weight
    // semantics, device-local inline updates); step()/run() train
    // synchronously and reject them. The streaming builder supports plain
    // single-pipeline static programs with a per-tensor base optimizer.
    PF_CHECK(spec_.n_pipelines == 1 && !spec_.dynamic_order &&
             !spec_.split_backward)
        << cfg_.schedule
        << ": run_flushless() streams single-pipeline static schedules only";
    PF_CHECK(!cfg_.use_kfac)
        << cfg_.schedule
        << ": flushless streaming has no step boundary to anchor K-FAC "
           "curvature refreshes — use a flush schedule for PipeFisher runs";
  }
  PF_CHECK(spec_.n_pipelines <= 2)
      << cfg_.schedule << " maps " << spec_.n_pipelines
      << " pipelines onto the devices; the executable runtime supports at "
         "most 2 (bidirectional Chimera) — registry, perf model, and "
         "simulator cover more (use simulate_step)";
  PF_CHECK(cfg_.n_micro >= 1 && cfg_.micro_batch_size >= 1);
  PF_CHECK(cfg_.stage_threads >= 1);
  PF_CHECK(cfg_.workers >= 0);

  device_order_ = plan_device_order(spec_);
  kfac_factors_ = kfac_factors(partition_, cfg_.use_kfac);

  const std::size_t workers = cfg_.workers > 0
                                  ? static_cast<std::size_t>(cfg_.workers)
                                  : static_cast<std::size_t>(spec_.n_devices);
  pool_ = std::make_unique<ThreadPool>(workers);

  transport_ = resolve_transport(cfg_.transport);
  if (transport_ == "shm") {
    PF_CHECK(spec_.n_pipelines == 1)
        << cfg_.schedule << ": the shm transport's rings are SPSC — "
        << spec_.n_pipelines
        << " pipelines put two producer devices on one boundary channel; "
           "use transport = inproc";
  }
  // Largest tensor a boundary carries: the (micro_batch · seq_len) × d_model
  // activation (grad-activations share the shape). At most n_micro messages
  // are in flight per boundary+direction, so a ring of n_micro slots means
  // the producer never blocks on a full ring within one step.
  const std::size_t slot_bytes = wire_bytes(
      cfg_.micro_batch_size * model.config().seq_len, model.config().d_model);
  const std::size_t ring_slots = static_cast<std::size_t>(spec_.n_micro);
  auto make_channel = [&](const std::string& name) -> std::unique_ptr<Channel> {
    if (transport_ == "inproc") return std::make_unique<StageChannel>(name);
    regions_.emplace_back(ShmRing::required_bytes(ring_slots, slot_bytes));
    return std::make_unique<TransportChannel>(
        name,
        ShmRing::create(regions_.back().data(), ring_slots, slot_bytes, name));
  };
  const int S = spec_.n_stages;
  StageLinks links;
  for (int s = 0; s + 1 < S; ++s) {
    fwd_ch_.push_back(make_channel(format("fwd[%d->%d]", s, s + 1)));
    bwd_ch_.push_back(make_channel(format("bwd[%d->%d]", s + 1, s)));
    links.fwd.push_back(fwd_ch_.back().get());
    links.bwd.push_back(bwd_ch_.back().get());
  }
  std::vector<int> stages(static_cast<std::size_t>(S));
  for (int s = 0; s < S; ++s) stages[static_cast<std::size_t>(s)] = s;
  binder_ = std::make_unique<PlanBinder>(partition_, spec_, cfg_, batcher,
                                         pool_.get(), stages, std::move(links));
  last_memory_stats_.resize(static_cast<std::size_t>(S));
}

PipelineRuntime::~PipelineRuntime() = default;

StepPlan PipelineRuntime::make_step_plan(bool curv_step, bool inv_step) const {
  return build_step_plan(spec_, device_order_, kfac_factors_, curv_step,
                         inv_step);
}

BertLossBreakdown PipelineRuntime::step() {
  PF_CHECK(traits_of(cfg_.schedule).flush)
      << cfg_.schedule
      << " is flushless: stream it with run_flushless() instead";
  const int S = spec_.n_stages;

  // --- Step preamble: exactly the serial Trainer's ---------------------
  // Entry reset (not just exit): begin_step() clears the stashes a step
  // that threw mid-flight left populated.
  binder_->begin_step(t_, spec_.n_micro);

  execute(make_step_plan(binder_->curv_step(), binder_->inv_step()));

  // --- Step epilogue: losses in micro order, stash check ----------------
  const BertLossBreakdown total = binder_->mean_loss(0, spec_.n_micro);
  // The stash high-water marks, then end_step() checks that every stash
  // entry was freed by its last reader.
  for (int s = 0; s < S; ++s) {
    const StageWorker& w = binder_->worker(s);
    last_memory_stats_[static_cast<std::size_t>(s)] = {
        partition_.stage(s).peak_stash_bytes(), w.recycled, w.fresh};
  }
  binder_->end_step();
  ++t_;
  return total;
}

TrainTrace PipelineRuntime::run() {
  TrainTrace trace;
  trace.loss.reserve(cfg_.total_steps);
  for (std::size_t i = 0; i < cfg_.total_steps; ++i) {
    const double lr = cfg_.lr.lr(t_);  // before step() advances t_
    trace.add(lr, step());
  }
  return trace;
}

TrainTrace PipelineRuntime::run_flushless() {
  PF_CHECK(!traits_of(cfg_.schedule).flush)
      << cfg_.schedule << " flushes at step boundaries: use run()";
  PF_CHECK(t_ == 0) << "run_flushless() streams once per runtime instance";
  const int N = spec_.n_micro;
  const int steps = static_cast<int>(cfg_.total_steps);
  PF_CHECK(steps >= 1);

  // One plan over every step: the schedule's program over N·steps global
  // micros, each stage's tail spliced into its device chain after the
  // stage's step-closing backward. Warmup and drain exist only at stream
  // entry and exit; the interior is the steady state a flush would
  // repeatedly break.
  const ScheduleSpec stream = build_schedule(
      cfg_.schedule, {cfg_.n_stages, N * steps, cfg_.virtual_chunks});
  StepPlan plan = build_step_plan(stream, plan_device_order(stream),
                                  kfac_factors_, false, false, N);

  // The step preamble once for the whole stream: every micro-batch drawn up
  // front in the serial order, indexed (and channel-keyed) by global micro.
  binder_->begin_step(0, N * steps);
  execute(std::move(plan));

  TrainTrace trace;
  for (int k = 0; k < steps; ++k)
    trace.add(cfg_.lr.lr(static_cast<std::size_t>(k)),
              binder_->mean_loss(k * N, N));
  binder_->end_step();
  t_ = static_cast<std::size_t>(steps);
  return trace;
}

void PipelineRuntime::execute(StepPlan plan) {
  // A plan that threw mid-flight leaves channel boxes populated; clearing
  // here keeps a retry reporting its own errors instead of phantom
  // duplicates.
  for (auto& ch : fwd_ch_) ch->clear();
  for (auto& ch : bwd_ch_) ch->clear();

  // The graph itself (lanes, priorities, resources, dependency edges) is
  // built by build_step_plan(); each closure only calls the binder.
  // Executor ids equal plan indices by construction — asserted below —
  // which is what lets the perfmodel calibration layer replay the
  // identical plan in virtual time.
  TaskExecutor ex(*pool_, plan.n_lanes);
  for (std::size_t i = 0; i < plan.tasks.size(); ++i) {
    const PlannedTask& pt = plan.tasks[i];
    const std::size_t id = ex.add([this, &pt] { binder_->run(pt); }, pt.lane,
                                  pt.priority, pt.deps, pt.resource);
    PF_ASSERT(id == i);
  }
  ex.run();
  last_records_ = ex.records();
  last_plan_ = std::move(plan);

  // Realized timeline: per-device intervals sorted by wall-clock start.
  last_timeline_ = Timeline(last_plan_.n_lanes);
  last_wall_seconds_ = 0.0;
  for (const auto& ids : executed_by_lane())
    for (const std::size_t i : ids) {
      const PlannedTask& pt = last_plan_.tasks[i];
      last_timeline_.add(Interval{.device = pt.lane,
                                  .start = last_records_[i].start,
                                  .end = last_records_[i].end,
                                  .kind = pt.kind,
                                  .stage = pt.stage,
                                  .micro = pt.micro,
                                  .layer = pt.layer,
                                  .factor = pt.factor});
      last_wall_seconds_ = std::max(last_wall_seconds_, last_records_[i].end);
    }
  for (const auto& ch : fwd_ch_)
    PF_CHECK(ch->pending() == 0) << ch->name() << ": undelivered activations";
  for (const auto& ch : bwd_ch_)
    PF_CHECK(ch->pending() == 0) << ch->name() << ": undelivered gradients";
}

std::vector<std::vector<std::size_t>> PipelineRuntime::executed_by_lane()
    const {
  std::vector<std::vector<std::size_t>> by_lane(
      static_cast<std::size_t>(spec_.n_devices));
  for (std::size_t i = 0; i < last_records_.size(); ++i)
    if (last_records_[i].executed)
      by_lane[last_plan_.tasks[i].lane].push_back(i);
  for (auto& ids : by_lane)
    std::stable_sort(ids.begin(), ids.end(), [&](std::size_t a, std::size_t b) {
      return last_records_[a].start < last_records_[b].start;
    });
  return by_lane;
}

std::vector<std::vector<PipeOp>> PipelineRuntime::last_realized_order() const {
  const auto by_lane = executed_by_lane();
  std::vector<std::vector<PipeOp>> out(by_lane.size());
  for (std::size_t d = 0; d < by_lane.size(); ++d)
    for (const std::size_t i : by_lane[d])
      if (last_plan_.tasks[i].is_op) out[d].push_back(last_plan_.tasks[i].op);
  return out;
}

std::vector<int> PipelineRuntime::forward_send_order(int boundary) const {
  PF_CHECK(boundary >= 0 &&
           static_cast<std::size_t>(boundary) < fwd_ch_.size());
  return fwd_ch_[static_cast<std::size_t>(boundary)]->send_order();
}

std::vector<int> PipelineRuntime::backward_send_order(int boundary) const {
  PF_CHECK(boundary >= 0 &&
           static_cast<std::size_t>(boundary) < bwd_ch_.size());
  return bwd_ch_[static_cast<std::size_t>(boundary)]->send_order();
}

}  // namespace pf
