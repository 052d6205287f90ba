#include "src/train/plan_binder.h"

#include <utility>

#include "src/common/check.h"
#include "src/optim/lamb.h"

namespace pf {

ScheduleSpec build_runtime_schedule(const PipelineRuntimeConfig& cfg) {
  ScheduleParams p;
  p.n_stages = cfg.n_stages;
  p.n_micro = cfg.n_micro;
  p.virtual_chunks = cfg.virtual_chunks;
  return build_schedule(cfg.schedule, p);
}

KfacFactors kfac_factors(const BertStagePartition& part, bool use_kfac) {
  KfacFactors factors;
  factors.input_owner.resize(static_cast<std::size_t>(part.n_stages()));
  if (use_kfac)
    for (int s = 0; s < part.n_stages(); ++s)
      factors.input_owner[static_cast<std::size_t>(s)] =
          part.stage(s).kfac_input_owners();
  return factors;
}

PlanBinder::PlanBinder(BertStagePartition& partition, const ScheduleSpec& spec,
                       const PipelineRuntimeConfig& cfg,
                       const MlmBatcher& batcher, ThreadPool* pool,
                       const std::vector<int>& owned, StageLinks links)
    : partition_(partition),
      cfg_(cfg),
      batcher_(batcher),
      links_(std::move(links)),
      n_micro_(spec.n_micro),
      split_(spec.split_backward),
      data_rng_(cfg.data_seed),
      workers_(static_cast<std::size_t>(spec.n_stages)) {
  for (const int s : owned) {
    StageWorker& w = worker(s);
    w.stage = &partition.stage(s);
    w.params = w.stage->params();
    w.ctx = ExecContext(cfg.stage_threads, cfg.stage_threads, pool);
    w.opt = cfg.base_optimizer ? cfg.base_optimizer()
                               : std::make_unique<Lamb>();
    // The stage's K-FAC tasks run under w.ctx like its other ops, so bubble
    // K-FAC work spends the stage's thread budget on the executor's pool.
    const auto kl = w.stage->kfac_linears();
    if (cfg.use_kfac && !kl.empty())
      w.engine = std::make_unique<KfacEngine>(kl);
  }
}

void PlanBinder::begin_step(std::size_t t, int n_batches) {
  batches_.clear();
  batches_.reserve(static_cast<std::size_t>(n_batches));
  for (int m = 0; m < n_batches; ++m)
    batches_.push_back(batcher_.next_batch(cfg_.micro_batch_size, data_rng_));
  t_ = t;
  curv_step_ = cfg_.use_kfac && t % cfg_.kfac.curvature_interval == 0;
  inv_step_ = cfg_.use_kfac && t % cfg_.kfac.inverse_interval == 0;
  key_base_ = links_.recv_timeout > 0.0 ? static_cast<int>(t) * n_micro_ : 0;
  for (StageWorker& w : workers_) {
    if (w.stage == nullptr) continue;
    zero_grads(w.params);
    w.fresh = 0;
    w.recycled = 0;
    w.stage->begin_step({.curvature = curv_step_ && w.engine != nullptr,
                         .weight_pass = split_});
  }
}

void PlanBinder::end_step() {
  for (StageWorker& w : workers_)
    if (w.stage != nullptr) w.stage->end_step();
}

void PlanBinder::run(const PlannedTask& task) {
  StageWorker& w = worker(task.stage);
  const StorageHandouts before = thread_storage_handouts();
  work(task, w);
  const StorageHandouts after = thread_storage_handouts();
  w.fresh += after.fresh - before.fresh;
  w.recycled += after.recycled - before.recycled;
}

void PlanBinder::work(const PlannedTask& task, StageWorker& w) {
  const int s = task.stage;
  const int m = task.micro;
  KfacEngine* engine = w.engine.get();
  PF_CHECK(engine != nullptr || !is_kfac_kind(task.kind))
      << "stage " << s << ": K-FAC task without an engine";
  // Factor index within the stage's engine, from the (block, linear) trace
  // labels — the inverse of the plan builder's f -> (f/6, f%6).
  const std::size_t f = task.layer >= 0
                            ? static_cast<std::size_t>(task.layer) * 6 +
                                  static_cast<std::size_t>(task.factor)
                            : 0;
  switch (task.kind) {
    case WorkKind::kForward:
      forward(s, m);
      return;
    case WorkKind::kBackward:
      backward(s, m);
      return;
    case WorkKind::kBackwardWeight:
      w.stage->backward_dw(m, w.ctx);
      return;
    case WorkKind::kSyncGrad:
      sync_grads(s);
      return;
    case WorkKind::kCurvatureA:
      engine->accumulate_curvature_a(f, w.stage->kfac_input(m, f), w.ctx);
      w.stage->kfac_input_done(m, f);
      return;
    case WorkKind::kCurvatureB:
      engine->accumulate_curvature_b(f, w.stage->kfac_output_grad(m, f),
                                     w.ctx);
      w.stage->kfac_output_grad_done(m, f);
      return;
    case WorkKind::kSyncCurvature:
      engine->commit_curvature_layer(f);
      return;
    case WorkKind::kInversionA:
      engine->update_inverse_factor(f, false, w.ctx);
      return;
    case WorkKind::kInversionB:
      engine->update_inverse_factor(f, true, w.ctx);
      return;
    case WorkKind::kPrecondition:
      engine->precondition_layer(f, w.ctx);
      return;
    case WorkKind::kOptimizerUpdate:
      w.opt->step(w.params,
                  cfg_.lr.lr(t_ + static_cast<std::size_t>(task.step)));
      zero_grads(w.params);
      return;
    default:
      PF_CHECK(false) << "unexpected kind in step plan";
  }
}

Matrix PlanBinder::receive(Channel* ch, int micro) const {
  if (ch == nullptr) return Matrix();
  const int key = key_base_ + micro;
  return links_.recv_timeout > 0.0 ? ch->recv(key, links_.recv_timeout)
                                   : ch->take(key);
}

void PlanBinder::forward(int s, int micro) {
  const auto si = static_cast<std::size_t>(s);
  StageWorker& w = workers_[si];
  Matrix in = receive(s > 0 ? links_.fwd[si - 1] : nullptr, micro);
  Matrix out = w.stage->forward(
      micro, batches_[static_cast<std::size_t>(micro)], std::move(in), w.ctx);
  if (si < links_.fwd.size())
    links_.fwd[si]->send(key_base_ + micro, std::move(out));
}

void PlanBinder::backward(int s, int micro) {
  const auto si = static_cast<std::size_t>(s);
  StageWorker& w = workers_[si];
  Matrix gin = receive(si < links_.bwd.size() ? links_.bwd[si] : nullptr,
                       micro);
  Matrix gout = w.stage->backward(
      micro, batches_[static_cast<std::size_t>(micro)], std::move(gin), w.ctx);
  if (s > 0) links_.bwd[si - 1]->send(key_base_ + micro, std::move(gout));
}

void PlanBinder::sync_grads(int s) {
  if (n_micro_ <= 1) return;
  const double inv = 1.0 / static_cast<double>(n_micro_);
  for (Param* p : worker(s).params) p->g *= inv;
}

BertLossBreakdown PlanBinder::mean_loss(int first, int n) const {
  const BertStage& last = partition_.stage(partition_.n_stages() - 1);
  BertLossBreakdown sum{};
  for (int m = first; m < first + n; ++m) {
    const auto l = last.losses(m);
    sum.total += l.total;
    sum.mlm += l.mlm;
    sum.nsp += l.nsp;
  }
  const double inv = 1.0 / static_cast<double>(n);
  return {sum.total * inv, sum.mlm * inv, sum.nsp * inv};
}

}  // namespace pf
