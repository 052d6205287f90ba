#include "src/core/kfac_work.h"

#include <algorithm>

#include "src/common/check.h"

namespace pf {

namespace {

// Accumulates the tasks for one (replica, pipeline, stage) and wires the
// curvature → [sync] → inversion dependency chain.
struct StageTaskBuilder {
  std::vector<BubbleTask>& out;
  std::size_t next_id() const { return out.size(); }

  std::size_t add(BubbleTask t) {
    t.id = next_id();
    out.push_back(std::move(t));
    return out.back().id;
  }
};

}  // namespace

std::vector<BubbleTask> make_kfac_tasks(const ScheduleSpec& spec,
                                        const StepSimResult& step,
                                        const CostModel& cm,
                                        const TransformerConfig& cfg,
                                        std::size_t blocks_per_stage,
                                        std::size_t b_micro,
                                        const KfacWorkOptions& opts) {
  PF_CHECK(opts.world >= 1);
  PF_CHECK(blocks_per_stage >= 1);
  const std::size_t tokens = b_micro * cfg.seq_len;
  const auto linears = cfg.kfac_linears_per_block();

  std::vector<BubbleTask> out;
  StageTaskBuilder b{out};

  const auto base_devices = static_cast<std::size_t>(spec.n_devices);

  for (int pl = 0; pl < spec.n_pipelines; ++pl) {
    const auto& micros = spec.micros_of_pipeline[static_cast<std::size_t>(pl)];
    for (int s = 0; s < spec.n_stages; ++s) {
      const auto base_dev =
          static_cast<std::size_t>(spec.device_of(pl, s));

      // Readiness anchors from the profiled base step (rule 1).
      std::vector<double> fwd_end(micros.size());
      std::vector<double> bwd_end(micros.size());
      for (std::size_t mi = 0; mi < micros.size(); ++mi) {
        fwd_end[mi] = step.op_end({OpType::kForward, pl, s, micros[mi]});
        bwd_end[mi] = step.op_end({OpType::kBackward, pl, s, micros[mi]});
      }

      // Global linear index across blocks, for inversion round-robin.
      int factor_counter = 0;
      for (std::size_t blk = 0; blk < blocks_per_stage; ++blk) {
        for (std::size_t li = 0; li < linears.size(); ++li) {
          const auto& shape = linears[li];

          for (int rep = 0; rep < opts.world; ++rep) {
            const std::size_t dev =
                base_dev + static_cast<std::size_t>(rep) * base_devices;

            // Curvature tasks per micro-batch (rule 1).
            std::vector<std::size_t> curv_a_ids, curv_b_ids;
            for (std::size_t mi = 0; mi < micros.size(); ++mi) {
              BubbleTask ca;
              ca.device = dev;
              ca.kind = WorkKind::kCurvatureA;
              ca.duration = cm.time_curvature_factor(shape.d_in, tokens);
              ca.earliest_start = fwd_end[mi];
              ca.stage = s;
              ca.micro = micros[mi];
              ca.layer = static_cast<int>(blk);
              ca.factor = static_cast<int>(li);
              curv_a_ids.push_back(b.add(ca));

              BubbleTask cb = ca;
              cb.kind = WorkKind::kCurvatureB;
              cb.duration = cm.time_curvature_factor(shape.d_out, tokens);
              cb.earliest_start = bwd_end[mi];
              curv_b_ids.push_back(b.add(cb));
            }

            // Sync-curvature collective (replica allreduce of A_l and B_l)
            // before inversion; modeled per replica with a dependency on
            // this replica's own curvature (the cross-replica alignment is
            // resolved by the assigner through the shared dependency ids
            // added below).
            std::vector<std::size_t> inv_deps_a = curv_a_ids;
            std::vector<std::size_t> inv_deps_b = curv_b_ids;
            if (opts.world > 1) {
              BubbleTask sync;
              sync.device = dev;
              sync.kind = WorkKind::kSyncCurvature;
              const double factor_bytes =
                  (static_cast<double>(shape.d_in) * shape.d_in +
                   static_cast<double>(shape.d_out) * shape.d_out) *
                  4.0;
              sync.duration = cm.time_allreduce(
                  factor_bytes, static_cast<std::size_t>(opts.world));
              sync.earliest_start = 0.0;
              sync.deps = curv_a_ids;
              sync.deps.insert(sync.deps.end(), curv_b_ids.begin(),
                               curv_b_ids.end());
              sync.splittable = false;
              sync.stage = s;
              sync.layer = static_cast<int>(blk);
              sync.factor = static_cast<int>(li);
              const std::size_t sync_id = b.add(sync);
              inv_deps_a = {sync_id};
              inv_deps_b = {sync_id};
            }

            // Inversion tasks (rule 2). Under inversion parallelism only
            // the owning replica inverts this factor.
            const bool owns_inverse =
                !opts.inversion_parallel ||
                (factor_counter % opts.world) == rep;
            if (owns_inverse) {
              BubbleTask ia;
              ia.device = dev;
              ia.kind = WorkKind::kInversionA;
              ia.duration = cm.time_inversion_factor(shape.d_in);
              ia.earliest_start = 0.0;
              ia.deps = inv_deps_a;
              ia.stage = s;
              ia.layer = static_cast<int>(blk);
              ia.factor = static_cast<int>(li);
              b.add(ia);

              BubbleTask ib = ia;
              ib.id = 0;
              ib.kind = WorkKind::kInversionB;
              ib.duration = cm.time_inversion_factor(shape.d_out);
              ib.deps = inv_deps_b;
              b.add(ib);
            }
          }
          ++factor_counter;
        }
      }
    }
  }
  return out;
}

double total_task_seconds(const std::vector<BubbleTask>& tasks,
                          std::size_t device) {
  double t = 0.0;
  for (const auto& task : tasks)
    if (task.device == device) t += task.duration;
  return t;
}

}  // namespace pf
