// Example: pretrain a scaled-down BERT on the synthetic corpus with NVLAMB
// (LAMB) and with K-FAC, reproducing the optimizer-level half of Figure 7
// at demo scale (~1 minute on a laptop core).
//
//   $ ./bert_pretraining [steps]     (a positive integer; default 200)
//
// PF_NN_THREADS=<n> parallelizes the nn forward/backward loops — attention
// heads, layer-norm rows, embedding gather/scatter, activations, loss —
// over n pool chunks, and PF_GEMM_THREADS=<n> the GEMM row blocks the same
// way: the two build the one ExecContext the serial trainer and its K-FAC
// optimizer thread through, the K-FAC layer loops taking the nn count
// (results are bitwise identical to the serial run; see
// src/common/exec_context.h). An integer knob that does not parse stops
// the run naming the variable. PF_FORCE_SCALAR=1 pins the GEMM microkernel
// to the portable scalar path (the banner line reports which SIMD level is
// active).
// PF_SCHEDULE=<name> picks the pipeline schedule used for the closing
// steps→simulated-wall-clock report (any name in list_schedules();
// default chimera, mirroring PF_GEMM_THREADS' env-knob style).
//
// Pipeline-runtime mode (the EXECUTABLE PipeFisher): PF_STAGES=<D> trains
// the K-FAC arm through src/train/pipeline_runtime — the model partitioned
// into D real stages, per-micro-batch fwd/bwd as tasks on a worker pool,
// K-FAC curvature/inversion dispatched into the realized bubbles, under
// the PF_SCHEDULE schedule (flush schedules only). PF_MICROS=<N> sets the
// micro-batches per step (gradient accumulation in serial mode, pipeline
// micro-batches in runtime mode), PF_STAGE_THREADS the per-stage
// ExecContext budget (bubble K-FAC work included), PF_STAGE_WORKERS the
// pool size (0 = one per device). The contract: stdout is byte-identical
// across PF_STAGES / PF_STAGE_THREADS / PF_STAGE_WORKERS at a fixed
// PF_MICROS — the runtime is bitwise equal to the serial trainer; the
// executed-timeline utilization report goes to stderr.
#include <cstdio>
#include <memory>

#include "src/common/cpu_features.h"
#include "src/common/exec_context.h"
#include "src/common/stats.h"
#include "src/common/strings.h"
#include "src/core/pipefisher.h"
#include "src/pipeline/schedule_registry.h"
#include "src/pipeline/simulator.h"
#include "src/optim/kfac_optimizer.h"
#include "src/optim/lamb.h"
#include "src/train/convergence.h"
#include "src/train/pipeline_runtime.h"

namespace {

using namespace pf;

int run(int argc, char** argv) {
  const int steps_arg = argc > 1 ? parse_int("steps", argv[1]) : 200;
  PF_CHECK(steps_arg >= 1) << "steps must be positive, got " << steps_arg;
  const auto steps = static_cast<std::size_t>(steps_arg);
  const ExecContext exec(env_int("PF_NN_THREADS", 1),
                         env_int("PF_GEMM_THREADS", 1));
  const int n_stages = env_int("PF_STAGES", 0);
  const int n_micros = env_int("PF_MICROS", 1);
  const int stage_threads = env_int("PF_STAGE_THREADS", 1);
  const int stage_workers = env_int("PF_STAGE_WORKERS", 0);
  PF_CHECK(n_micros >= 1 && n_stages >= 0);
  // Config banner goes to stderr: stdout must stay byte-identical across
  // the bitwise-neutral thread knobs (the verify contract for this binary).
  std::fprintf(stderr,
               "linalg: %s kernels (detected %s), gemm_threads=%d, "
               "nn_threads=%d\n",
               simd_level_name(active_simd_level()),
               simd_level_name(detected_simd_level()), exec.gemm_threads(),
               exec.nn_threads());
  if (n_stages > 0)
    std::fprintf(stderr,
                 "[pipeline] executable runtime: D=%d, micros=%d, "
                 "stage_threads=%d, workers=%d\n",
                 n_stages, n_micros, stage_threads, stage_workers);
  const std::string schedule = env_str("PF_SCHEDULE", "chimera");
  // Fail a typo now, not after the training run; the runtime (and the
  // closing PipeFisher report) need a flush schedule.
  PF_CHECK(traits_of(schedule).flush)
      << schedule << " is flushless; pick a flush schedule";
  if (n_stages > 0) {
    // Validate the runtime shape up front with the knob names in the
    // message — e.g. the default PF_SCHEDULE=chimera needs an even
    // PF_MICROS >= 2, which bare PF_STAGES=2 does not satisfy.
    ScheduleParams sp;
    sp.n_stages = n_stages;
    sp.n_micro = n_micros;
    try {
      traits_of(schedule).check_params(sp);
    } catch (const Error& e) {
      std::fprintf(stderr,
                   "PF_STAGES=%d PF_MICROS=%d does not fit PF_SCHEDULE=%s: "
                   "%s\n(adjust PF_MICROS/PF_STAGES or pick another "
                   "PF_SCHEDULE)\n",
                   n_stages, n_micros, schedule.c_str(), e.what());
      return 1;
    }
  }

  // Model: a miniature BERT (2 encoder blocks) — same structure as the
  // paper's target, scaled to CPU.
  BertConfig cfg;
  cfg.vocab = 40;
  cfg.d_model = 32;
  cfg.d_ff = 64;
  cfg.n_heads = 4;
  cfg.n_layers = 2;
  cfg.seq_len = 16;

  // Data: Zipf-Markov synthetic corpus with learnable bigram structure.
  CorpusConfig cc;
  cc.vocab = cfg.vocab;
  cc.structure_prob = 0.9;
  cc.successors = 2;
  SyntheticCorpus corpus(cc);
  MlmBatcherConfig bc;
  bc.seq_len = cfg.seq_len;
  MlmBatcher batcher(corpus, bc);

  auto train = [&](bool use_kfac) {
    Rng rng(7);
    BertModel model(cfg, rng);
    std::printf("model: %zu parameters, %zu K-FAC-tracked linears\n",
                model.n_params(), model.kfac_linears().size());
    const PolyWarmupSchedule lr(
        2e-2, use_kfac ? steps * 85 / 1000 : steps * 28 / 100, steps);
    KfacOptimizerOptions o;
    o.inverse_interval = 3;
    // Per-micro curvature is the runtime's semantics; at PF_MICROS=1 it
    // runs the same engine calls as the last-micro estimate.
    o.per_micro_curvature = true;
    if (use_kfac && n_stages > 0) {
      // Executable pipeline runtime: same math, really pipelined.
      PipelineRuntimeConfig pc;
      pc.schedule = schedule;
      pc.n_stages = n_stages;
      pc.n_micro = n_micros;
      pc.micro_batch_size = 32;
      pc.total_steps = steps;
      pc.lr = lr;
      pc.stage_threads = stage_threads;
      pc.workers = stage_workers;
      pc.use_kfac = true;
      pc.kfac = o;
      PipelineRuntime rt(model, batcher, pc);
      const auto trace = rt.run();
      const auto sim = simulate_step(rt.spec(), StepCosts{});
      std::fprintf(stderr,
                   "[pipeline] %s D=%d: executed utilization %s over %s "
                   "per step (simulator predicts %s for the pipe phase)\n",
                   schedule.c_str(), n_stages,
                   percent(rt.last_executed_timeline().utilization()).c_str(),
                   human_time(rt.last_step_wall_seconds()).c_str(),
                   percent(sim.timeline.utilization(0.0, sim.pipe_makespan))
                       .c_str());
      return trace;
    }
    TrainerConfig tc;
    tc.exec = exec;
    tc.batch_size = 32;
    tc.accumulation_steps = static_cast<std::size_t>(n_micros);
    tc.total_steps = steps;
    tc.schedule = lr;
    std::unique_ptr<Optimizer> opt;
    if (use_kfac) {
      opt = std::make_unique<KfacOptimizer>(model.kfac_linears(),
                                            std::make_unique<Lamb>(), o,
                                            exec);
    } else {
      opt = std::make_unique<Lamb>();
    }
    Trainer trainer(model, batcher, std::move(opt), tc);
    return trainer.run();
  };

  std::printf("== LAMB ==\n");
  const auto lamb = train(false);
  std::printf("== K-FAC (LAMB base, frequent refresh) ==\n");
  const auto kfac = train(true);

  const auto ls = smooth_moving_average(lamb.loss, 10);
  const auto ks = smooth_moving_average(kfac.loss, 10);
  std::printf("\n%6s %10s %10s\n", "step", "LAMB", "K-FAC");
  for (std::size_t i = 0; i < steps;
       i += std::max<std::size_t>(1, steps / 10))
    std::printf("%6zu %10.4f %10.4f\n", i, ls[i], ks[i]);
  std::printf("%6zu %10.4f %10.4f\n", steps - 1, ls.back(), ks.back());

  const auto cmp = compare_convergence(lamb, kfac, 1.0, 1.0, 10, steps / 15);
  if (cmp.challenger_steps_to_match >= 0)
    std::printf(
        "\nK-FAC reached LAMB's final loss (%.3f) at step %ld of %ld "
        "(%.0f%% of the steps)\n",
        cmp.baseline_final_loss, cmp.challenger_steps_to_match,
        cmp.baseline_steps, cmp.step_fraction * 100);
  else
    std::printf("\nK-FAC did not reach LAMB's final loss in this short demo "
                "run; try more steps.\n");

  // Context: what each optimizer's step would cost on a modeled pipeline
  // (PF_SCHEDULE; K-FAC rides PipeFisher's bubbles, LAMB the plain step).
  PipeFisherConfig pcfg;
  pcfg.schedule = schedule;
  pcfg.arch = bert_base();
  pcfg.hw = p100();
  pcfg.n_stages = 4;
  pcfg.blocks_per_stage = 3;
  pcfg.n_micro = 4;
  pcfg.b_micro = 32;
  const auto prep = run_pipefisher(pcfg);
  // Virtual-pipeline schedules own blocks_per_stage blocks per CHUNK, so
  // report the total model size the simulation actually covered.
  const int model_blocks =
      traits_of(schedule).model_stages(schedule_params(pcfg)) *
      pcfg.blocks_per_stage;
  std::printf(
      "\non a modeled %s pipeline (%d BERT-Base blocks, D=4, P100): LAMB "
      "%s/step, K-FAC w/ PipeFisher %s/step (+%.1f%%), utilization %s -> "
      "%s\n",
      schedule.c_str(), model_blocks,
      human_time(prep.step_time_baseline).c_str(),
      human_time(prep.step_time).c_str(), prep.overhead_fraction() * 100.0,
      percent(prep.utilization_baseline).c_str(),
      percent(prep.utilization).c_str());
  return 0;
}

}  // namespace

// A bad knob (an unknown PF_SIMD_LEVEL, a malformed integer, a thread
// count below 1, a flushless PF_SCHEDULE) ends the run with its message,
// not an abort.
int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "example_bert_pretraining: %s\n", e.what());
    return 1;
  }
}
