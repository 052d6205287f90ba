// K-FAC work-item generation for PipeFisher (paper §3.1).
//
// For every pipeline stage a device owns, K-FAC adds:
//   * curvature work  — one task per (block, linear, factor, micro-batch):
//       A_l needs the layer inputs   → ready after Forward(stage, micro)
//       B_l needs the output errors  → ready after Backward(stage, micro)
//   * inversion work  — one task per (block, linear, factor):
//       ready after the factor's curvature tasks for ALL micro-batches
//       (plus sync-curvature when data-parallel replicas share factors).
//
// Preconditioning is NOT generated here: it runs every step in the step tail
// (rule 3) and is part of the base step produced by the simulator.
#pragma once

#include <vector>

#include "src/hw/cost_model.h"
#include "src/pipeline/simulator.h"
#include "src/trace/timeline.h"

namespace pf {

// A unit of bubble-fillable work with dependencies, owned by one device.
struct BubbleTask {
  std::size_t id = 0;
  std::size_t device = 0;
  WorkKind kind = WorkKind::kCurvatureA;
  double duration = 0.0;
  // Absolute earliest start (e.g., end of the forward that produced the
  // activations), within the first unrolled step.
  double earliest_start = 0.0;
  // Ids of tasks that must complete before this one starts.
  std::vector<std::size_t> deps;
  // Splittable work may be placed across several bubbles as chunks of at
  // least `min_chunk` seconds (blocked SYRK / blocked Cholesky panels).
  bool splittable = true;
  double min_chunk = 1e-4;
  // Labels for tracing.
  int stage = -1;
  int micro = -1;
  int layer = -1;   // block index within the stage
  int factor = -1;  // linear index within the block (0..5)
};

struct KfacWorkOptions {
  // Round-robin split of inversion work across data-parallel replicas
  // (Osawa et al. 2019 inversion parallelism).
  bool inversion_parallel = false;
  // Number of data-parallel replicas per pipeline (1 = none). Replica r of
  // device d is device d + r*n_base_devices. world > 1 inserts a
  // sync-curvature allreduce of each factor pair before its inversion.
  int world = 1;
};

// Generates the K-FAC task list for one pipeline step.
//
// `spec`/`step` describe the base pipeline step of ONE replica (devices
// 0..D-1); when opts.world > 1 the caller is expected to have replicated the
// base timeline for devices d + r*D and this function emits tasks for every
// replica. Durations come from `cm` for the given architecture/shape.
std::vector<BubbleTask> make_kfac_tasks(const ScheduleSpec& spec,
                                        const StepSimResult& step,
                                        const CostModel& cm,
                                        const TransformerConfig& cfg,
                                        std::size_t blocks_per_stage,
                                        std::size_t b_micro,
                                        const KfacWorkOptions& opts = {});

// Total seconds of curvature + inversion work per device (diagnostics).
double total_task_seconds(const std::vector<BubbleTask>& tasks,
                          std::size_t device);

}  // namespace pf
