// Figure 7 (and Figure 8) reproduction: Phase-1 pretraining loss of
// NVLAMB vs K-FAC, against steps and against simulated wall-clock time.
//
// Paper methodology, reproduced here end to end:
//  1. Train the same model with both optimizers, identical hyperparameters
//     except the LR warmup (2000 -> 600 out of 7038 steps; here scaled to
//     28% -> 8.5% of the run). The K-FAC run tolerates the more aggressive
//     early schedule; the first-order baseline does not benefit from it.
//  2. Smooth both curves, find where K-FAC first reaches the baseline's
//     final loss (paper: 2961 of 7038 steps = 42.0%).
//  3. Convert steps to time with per-step costs measured on the pipeline:
//     Chimera for NVLAMB (847.8 ms/step, util 75.9%) vs Chimera w/
//     PipeFisher for K-FAC (980.2 ms/step, util 93.2%) — paper result:
//     48.4 min vs 99.4 min (48.7%).
//
// Substitution: a scaled-down BERT on a synthetic Zipf-Markov corpus
// (DESIGN.md §2); the claim under test is relative (step fraction < ~60%,
// time fraction ~50-75%), not absolute.
//
// Environment: PF_FIG7_STEPS overrides the 600-step default (e.g. 150 for a
// quick run, 1200 for a tighter curve). PF_NN_THREADS=<n> and
// PF_GEMM_THREADS=<n> build the ExecContext both training runs thread
// through: n-way nn loops and n-way GEMM row blocks (bitwise-identical
// results; src/common/exec_context.h). The K-FAC optimizer runs under the
// same context, so its per-layer loops take the nn count and its GEMMs and
// Choleskys the GEMM count. PF_SCHEDULE=<name> picks the pipeline schedule
// for the steps→time conversion (any name in list_schedules(); default
// chimera, as in the paper).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>

#include "bench/bench_util.h"
#include "src/common/exec_context.h"
#include "src/common/stats.h"
#include "src/core/pipefisher.h"
#include "src/pipeline/schedule_registry.h"
#include "src/trace/ascii_plot.h"
#include "src/optim/kfac_optimizer.h"
#include "src/optim/lamb.h"
#include "src/train/convergence.h"
#include "src/train/pipeline_runtime.h"

using namespace pf;

namespace {

TrainTrace run_training(const BertConfig& cfg, const MlmBatcher& batcher,
                        std::size_t steps, bool use_kfac,
                        const ExecContext& exec) {
  Rng rng(7);  // same init for both runs
  BertModel model(cfg, rng);
  TrainerConfig tc;
  tc.exec = exec;
  tc.batch_size = 32;
  tc.total_steps = steps;
  // NVLAMB warms up for 28% of the run (2000/7038); K-FAC for 8.5%
  // (600/7038) — the paper's only hyperparameter difference.
  const std::size_t warmup = use_kfac ? steps * 85 / 1000 : steps * 28 / 100;
  tc.schedule = PolyWarmupSchedule(2e-2, warmup, steps);
  std::unique_ptr<Optimizer> opt;
  if (use_kfac) {
    KfacOptimizerOptions o;
    o.curvature_interval = 1;
    o.inverse_interval = 3;  // PipeFisher-style frequent refresh
    opt = std::make_unique<KfacOptimizer>(model.kfac_linears(),
                                          std::make_unique<Lamb>(), o, exec);
  } else {
    opt = std::make_unique<Lamb>();
  }
  Trainer trainer(model, batcher, std::move(opt), tc);
  return trainer.run();
}

int run() {
  const std::size_t steps =
      static_cast<std::size_t>(std::max(1, env_int("PF_FIG7_STEPS", 600)));
  const ExecContext exec(env_int("PF_NN_THREADS", 1),
                         env_int("PF_GEMM_THREADS", 1));
  const std::string schedule = env_str("PF_SCHEDULE", "chimera");
  // Fail a typo (or a flushless schedule, which has no per-step bubble
  // model) now, not after the training runs.
  PF_CHECK(traits_of(schedule).flush)
      << schedule << " is flushless; pick a flush schedule for this report";

  bench::heading(format(
      "Figure 7: pretraining convergence, NVLAMB vs K-FAC (%zu steps)",
      steps));

  BertConfig cfg;
  cfg.vocab = 40;
  cfg.d_model = 32;
  cfg.d_ff = 64;
  cfg.n_heads = 4;
  cfg.n_layers = 2;
  cfg.seq_len = 16;
  CorpusConfig cc;
  cc.vocab = cfg.vocab;
  cc.structure_prob = 0.9;
  cc.successors = 2;
  SyntheticCorpus corpus(cc);
  MlmBatcherConfig bc;
  bc.seq_len = cfg.seq_len;
  MlmBatcher batcher(corpus, bc);
  std::printf("corpus conditional-entropy floor: %.3f nats (ln V = %.3f)\n",
              corpus.conditional_entropy(),
              std::log(static_cast<double>(corpus.n_words())));

  std::printf("training NVLAMB baseline...\n");
  const auto lamb_trace = run_training(cfg, batcher, steps, false, exec);
  std::printf("training K-FAC...\n");
  const auto kfac_trace = run_training(cfg, batcher, steps, true, exec);

  // Per-step times from the pipeline simulation (paper: 256 P100 GPUs,
  // Chimera, 4 stages; we default to the same D=4 Chimera configuration —
  // PF_SCHEDULE swaps in any other registered schedule).
  PipeFisherConfig pcfg;
  pcfg.schedule = schedule;
  pcfg.arch = bert_base();
  pcfg.hw = p100();
  pcfg.n_stages = 4;
  pcfg.blocks_per_stage = 3;
  pcfg.n_micro = 4;
  pcfg.b_micro = 32;
  const auto prep = run_pipefisher(pcfg);

  const auto cmp = compare_convergence(lamb_trace, kfac_trace,
                                       prep.step_time_baseline,
                                       prep.step_time, 15, steps / 15);

  bench::subheading("loss vs steps (smoothed)");
  const auto ls = smooth_moving_average(lamb_trace.loss, 15);
  const auto ks = smooth_moving_average(kfac_trace.loss, 15);
  AsciiPlotOptions popt;
  popt.width = 100;
  popt.height = 18;
  popt.title = "pretraining loss (smoothed)";
  std::printf("%s\n",
              render_ascii_plot({ls, ks}, {"NVLAMB", "K-FAC"}, popt).c_str());
  std::printf("%6s %10s %10s    %8s %8s\n", "step", "NVLAMB", "K-FAC",
              "lr(LAMB)", "lr(KFAC)");
  for (std::size_t i = 0; i < steps; i += std::max<std::size_t>(1, steps / 15))
    std::printf("%6zu %10.4f %10.4f    %8.5f %8.5f\n", i, ls[i], ks[i],
                lamb_trace.lr[i], kfac_trace.lr[i]);
  std::printf("%6zu %10.4f %10.4f\n", steps - 1, ls.back(), ks.back());

  bench::subheading("Figure 7 headline numbers");
  bench::compare_line("NVLAMB final loss (smoothed)",
                      format("%.3f", cmp.baseline_final_loss), "3.41");
  bench::compare_line(
      "K-FAC steps to reach it",
      cmp.challenger_steps_to_match >= 0
          ? format("%ld/%ld (%.1f%%)", cmp.challenger_steps_to_match,
                   cmp.baseline_steps, cmp.step_fraction * 100)
          : std::string("not reached"),
      "2961/7038 (42.0%)");
  // The paper's reference numbers are for Chimera; under PF_SCHEDULE they
  // no longer apply.
  const auto ref = [&schedule](const char* paper_value) {
    return schedule == "chimera" ? paper_value : "n/a (paper: chimera)";
  };
  bench::compare_line(format("NVLAMB time/step (%s)", schedule.c_str()),
                      human_time(prep.step_time_baseline), ref("847.8 ms"));
  bench::compare_line(
      format("K-FAC time/step (%s w/ PipeFisher)", schedule.c_str()),
      human_time(prep.step_time), ref("980.2 ms"));
  bench::compare_line("NVLAMB utilization",
                      percent(prep.utilization_baseline), ref("75.9%"));
  bench::compare_line("PipeFisher utilization", percent(prep.utilization),
                      ref("93.2%"));
  bench::compare_line("simulated time, NVLAMB",
                      human_time(cmp.baseline_time), ref("99.4 min"));
  bench::compare_line("simulated time, K-FAC w/ PipeFisher",
                      human_time(cmp.challenger_time), ref("48.4 min"));
  bench::compare_line("time fraction",
                      format("%.1f%%", cmp.time_fraction * 100),
                      ref("48.7%"));

  bench::subheading("Figure 8: learning-rate schedules");
  std::printf(
      "K-FAC's shorter warmup gives it larger learning rates early on (see "
      "the lr columns above),\nwhich the K-FAC run tolerates but diverges "
      "under NVLAMB — the paper's observation.\n");

  // Appendix C.1's stale-weight question, executed: does flushless 1F1B
  // streaming (inline per-stage updates, no flush, PipeDream-style weight
  // staleness) still converge like the synchronous pipeline? Both runs
  // stream the same data at the same shape; only the flush differs. The
  // band is the acceptance pin — staleness at D=2 is bounded by one update,
  // so the smoothed final losses must land close together.
  bench::subheading("flushless 1F1B: convergence under stale weights");
  const std::size_t fl_steps = static_cast<std::size_t>(
      std::max(1, env_int("PF_FIG7_FLUSHLESS_STEPS",
                          static_cast<int>(std::max<std::size_t>(40,
                                                                 steps / 10)))));
  const auto stream_run = [&](const std::string& sched) {
    Rng rng(7);
    BertModel model(cfg, rng);
    PipelineRuntimeConfig pc;
    pc.schedule = sched;
    pc.n_stages = 2;
    pc.n_micro = 4;
    pc.micro_batch_size = 8;  // 4 x 8 = the serial runs' batch of 32
    pc.total_steps = fl_steps;
    pc.lr = PolyWarmupSchedule(2e-2, fl_steps * 28 / 100, fl_steps);
    pc.workers = 1;
    pc.use_kfac = false;
    PipelineRuntime rt(model, batcher, pc);
    return sched == "1f1b-flushless" ? rt.run_flushless() : rt.run();
  };
  const auto sync_trace = stream_run("1f1b");
  const auto fl_trace = stream_run("1f1b-flushless");
  const double sync_final = sync_trace.final_loss_smoothed();
  const double fl_final = fl_trace.final_loss_smoothed();
  bench::compare_line("synchronous 1f1b final loss (smoothed)",
                      format("%.3f", sync_final), "reference");
  bench::compare_line("flushless final loss (smoothed)",
                      format("%.3f", fl_final),
                      "within 15% of synchronous");
  PF_CHECK(std::abs(fl_final - sync_final) <= 0.15 * sync_final)
      << "flushless streaming diverged from the synchronous pipeline: "
      << fl_final << " vs " << sync_final;
  std::printf(
      "flushless streaming stays inside the band: stale weights trade the "
      "flush for\nbounded staleness (D-1 updates at most), not for "
      "convergence.\n");
  return 0;
}

}  // namespace

// A bad argument or knob ends the run with its message, not an abort.
int main() {
  try {
    return run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fig07_convergence: %s\n", e.what());
    return 1;
  }
}
