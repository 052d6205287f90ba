// Multi-process stage placement: fork one OS process per pipeline device
// and run the SAME step plan the in-process runtime executes, with every
// boundary tensor crossing a lock-free shared-memory ring
// (comm/shm_ring.h + comm/transport_channel.h) instead of an in-process
// channel.
//
// Execution model. The parent builds everything address-sensitive BEFORE
// forking — the model (weights become copy-on-write in every child), the
// stage partition, one SPSC ring per boundary+direction in
// MAP_SHARED|MAP_ANONYMOUS regions, and a shared result region — then
// forks spec.n_devices children. Child d executes the step plan
// (pipeline/step_plan.h, the exact graph PipelineRuntime::step() runs)
// filtered to tasks with lane == d, in ascending plan index, through the
// same PlanBinder::run() the in-process runtime binds (plan_binder.h —
// the one place a task kind maps to training work). Because every
// dependency edge points at a smaller plan index, per-lane index order is
// a valid linear extension of the global DAG: whenever a child blocks in
// recv(), the producing task has a smaller index on some other lane whose
// child is not past it, so progress is guaranteed (no cross-process
// deadlock) and the gradient-fold deps that pin bitwise determinism are
// honored.
//
// Channels are keyed by GLOBAL micro id g = step·n_micro + m and never
// cleared between steps — a child may race one step ahead of a slow peer,
// and its sends must land in the ring, not be wiped by the laggard's step
// boundary. The rings stay bounded regardless: a producer's step-(t+1)
// sends transitively depend (through its own optimizer and backward
// chain) on the consumer having drained every step-t message, so at most
// n_micro messages are ever in flight per ring.
//
// Data path: each child re-draws the full deterministic batch stream from
// its own Rng(data_seed) — identical bytes in every process, no batch
// shipping. Each child builds its own ThreadPool and a PlanBinder for the
// stages it owns AFTER the fork — contexts, engines and one base optimizer
// per owned stage (a forked child inherits a pool's state but none of its
// threads, so the stage contexts name the child's pool; engines hold no
// pool and run under those contexts). Results flow back through the
// shared region: the last stage's owner writes per-step losses, every
// child writes its owned stages' final parameters and its consumer-side
// handoff-wait stats, and the parent joins exit codes and assembles the
// result.
//
// Bitwise contract (pinned in tests/test_multiproc.cpp): losses and final
// parameters equal the in-process PipelineRuntime and the serial Trainer
// at every schedule × stages × micros probed, LAMB and K-FAC alike.
//
// Fork safety: call from a parent whose own threads are quiescent (glibc's
// malloc is fork-safe via atexit handlers; our locks must simply not be
// held at fork, which a single-threaded caller guarantees).
#pragma once

#include <string>
#include <vector>

#include "src/train/pipeline_runtime.h"

namespace pf {

struct MultiprocConfig {
  // Schedule/model/optimizer knobs, shared with the in-process runtime.
  // `workers` is ignored (parallelism comes from one process per device;
  // stage_threads is each child's intra-stage budget) and `transport` is
  // ignored (the wire is always the shm ring — that is the point).
  PipelineRuntimeConfig runtime;
};

// Consumer-endpoint handoff accounting for one ring (waits that actually
// blocked; a recv satisfied from the reorder box costs nothing).
struct MultiprocHandoff {
  std::string channel;     // e.g. "fwd[0->1]"
  std::size_t waits = 0;   // recv() calls that blocked on the ring
  double wait_p50 = 0.0;   // seconds, nearest-rank over blocked waits
  double wait_p95 = 0.0;
  double wait_mean = 0.0;
};

struct MultiprocResult {
  // Per-step losses + LR, shaped exactly like Trainer::run()'s trace.
  TrainTrace trace;
  // Final parameter values, one vector per tensor in model.params() order
  // (the concatenation of the stages' params — pinned equal to the model
  // ordering in test_stage_partition).
  std::vector<std::vector<double>> params;
  // One entry per ring, fwd[0..S-2] then bwd[0..S-2].
  std::vector<MultiprocHandoff> handoff;
  // Slowest child's step-loop wall time (fork/model-build excluded) — the
  // multi-process analog of summing PipelineRuntime step makespans.
  double wall_seconds = 0.0;
  int n_processes = 0;
};

// Runs cfg.runtime.total_steps synchronous steps across one forked process
// per device and returns the joined result. The parent's `model` is left
// untouched (children mutate copy-on-write pages); read the trained
// parameters from the result. Throws pf::Error if any child exits
// non-zero, with the child's stderr already on the parent's stderr.
MultiprocResult run_multiproc(BertModel& model, const MlmBatcher& batcher,
                              const MultiprocConfig& cfg);

}  // namespace pf
