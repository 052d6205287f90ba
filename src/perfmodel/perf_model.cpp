#include "src/perfmodel/perf_model.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"
#include "src/pipeline/schedule_registry.h"

namespace pf {

PerfModelResult run_perf_model(const PerfModelInput& in) {
  PF_CHECK(in.depth >= 2 && in.n_micro >= 1 && in.b_micro >= 1);
  const ScheduleTraits& traits = traits_of(in.schedule);
  PF_CHECK(traits.flush)
      << in.schedule << " is flushless: the per-step bubble model does not "
      << "apply (stream it with the async simulator or "
      << "PipelineRuntime::run_flushless)";
  ScheduleParams sp;
  sp.n_stages = static_cast<int>(in.depth);
  sp.n_micro = static_cast<int>(in.n_micro);
  sp.virtual_chunks = static_cast<int>(in.virtual_chunks);
  // The closed form is only meaningful for shapes the schedule can actually
  // take (e.g. Chimera's even stages/micros) — reject the rest up front.
  traits.check_params(sp);
  const CostModel cm(in.hw);
  const StageShape shape{in.cfg, in.blocks_per_stage, in.b_micro};
  const double n = static_cast<double>(in.n_micro);

  PerfModelResult r;
  r.t_forward = cm.time_forward_stage(shape);
  r.t_backward = in.recompute ? cm.time_backward_stage_recompute(shape)
                              : cm.time_backward_stage(shape);
  if (traits.split_backward) {
    // ZB-H1's modeling assumption: dW GEMM ≈ dx GEMM + db reduction, so the
    // split is 50/50 with the halves summing exactly to the fused cost.
    r.t_backward_w = 0.5 * r.t_backward;
    r.t_backward_b = r.t_backward - r.t_backward_w;
  }
  const std::size_t k = std::max<std::size_t>(1, in.block_diag_k);
  if (k == 1) {
    r.t_curvature = cm.time_curvature_block(shape) *
                    static_cast<double>(in.blocks_per_stage);
    r.t_inversion = cm.time_inversion_block(in.cfg) *
                    static_cast<double>(in.blocks_per_stage);
  } else {
    // Appendix A.2: only the k diagonal blocks of each factor are built and
    // inverted.
    double curv = 0.0, inv = 0.0;
    const std::size_t tokens = shape.tokens();
    for (const auto& l : in.cfg.kfac_linears_per_block()) {
      for (std::size_t dim : {l.d_in, l.d_out}) {
        const std::size_t block = std::max<std::size_t>(1, dim / k);
        curv += static_cast<double>(k) *
                cm.time_curvature_factor(block, tokens);
        inv += static_cast<double>(k) * cm.time_inversion_factor(block);
      }
    }
    r.t_curvature = curv * static_cast<double>(in.blocks_per_stage);
    r.t_inversion = inv * static_cast<double>(in.blocks_per_stage);
  }
  r.t_precondition = cm.time_precondition_stage(in.cfg, in.blocks_per_stage);

  const double cf = traits.critical_path_forwards(sp);
  const double cb = traits.critical_path_backwards(sp);
  // Pipeline ops per device per micro-batch (1 for single-stage-per-device
  // and Chimera, V for interleaved) — scales the useful work, the per-device
  // K-FAC work, and the precondition tail alike.
  const double w = traits.useful_ops_per_micro(sp);
  r.t_pipe = cf * r.t_forward + cb * r.t_backward;
  r.t_bubble = r.t_pipe - n * w * (r.t_forward + r.t_backward);
  // Degenerate shapes (e.g. Chimera at D=2) have a zero closed-form bubble;
  // the ratio/refresh quantities below would be infinite.
  PF_CHECK(r.t_bubble > 0.0)
      << in.schedule << " at D=" << in.depth << " N=" << in.n_micro
      << " has no pipeline bubble; the closed-form ratio is undefined";

  // Inversion accounting: the w multiplier is CORRECT for the per-device
  // K-FAC total, not folklore. Every model stage's factors are inverted
  // exactly once per refresh by the device that owns the stage's
  // pipeline-0 copy (PipelineRuntime assigns inversions to device_of(0, s)).
  // A Chimera device owns two stages but only ONE of pipeline 0, so it
  // runs 1× per-stage inversion work (w = 1); an interleaved device owns
  // its V chunks outright and runs V× (w = V). Pinned against executed
  // traces by InversionAccounting.CountsMatchStageOwnership
  // (tests/test_calibration.cpp).
  const double curv_inv = w * (n * r.t_curvature + r.t_inversion);
  r.curv_inv_bubble_ratio = curv_inv / r.t_bubble;
  r.refresh_steps =
      std::max(1, static_cast<int>(std::ceil(r.curv_inv_bubble_ratio)));

  const double seqs = n * static_cast<double>(in.b_micro);
  r.throughput_pipeline = seqs / r.t_pipe;
  const double t_pf = r.t_pipe + w * r.t_precondition;
  r.throughput_pipefisher = seqs / t_pf;
  r.throughput_kfac_naive = seqs / (t_pf + curv_inv);
  r.throughput_kfac_skip =
      seqs / (t_pf + curv_inv / static_cast<double>(r.refresh_steps));
  r.speedup_vs_kfac_skip =
      r.throughput_pipefisher / r.throughput_kfac_skip;

  MemoryModelInput mm;
  mm.cfg = in.cfg;
  mm.blocks_per_stage = in.blocks_per_stage;
  mm.stages_per_device =
      static_cast<std::size_t>(traits.stages_per_device_for(sp));
  mm.b_micro = in.b_micro;
  mm.n_micro = in.n_micro;
  mm.recompute = in.recompute;
  r.memory = model_memory(mm);
  return r;
}

}  // namespace pf
