// Cross-module integration tests: the scheduling side (core/pipefisher)
// and the numeric side (kfac + optim + nn + train) agree with each other
// and with the closed-form performance model.
#include <gtest/gtest.h>

#include <memory>

#include "src/common/check.h"
#include "src/common/stats.h"
#include "src/core/pipefisher.h"
#include "src/linalg/gemm.h"
#include "src/optim/kfac_optimizer.h"
#include "src/optim/lamb.h"
#include "src/perfmodel/perf_model.h"
#include "src/trace/chrome_trace.h"
#include "src/train/convergence.h"

namespace pf {
namespace {

TEST(Integration, SchedulerRefreshFeedsNumericKfacIntervals) {
  // The pipeline-level PipeFisher run decides how often curvature can be
  // refreshed for free; plug that interval into the numeric K-FAC optimizer
  // and verify training still learns — the end-to-end story of the paper.
  PipeFisherConfig pcfg;
  pcfg.schedule = "gpipe";
  pcfg.arch = bert_base();
  pcfg.hw = p100();
  pcfg.n_stages = 4;
  pcfg.blocks_per_stage = 3;
  pcfg.n_micro = 4;
  pcfg.b_micro = 32;
  const auto rep = run_pipefisher(pcfg);
  ASSERT_GE(rep.refresh_interval_steps, 1);
  ASSERT_LE(rep.refresh_interval_steps, 8);

  BertConfig cfg;
  cfg.vocab = 36;
  cfg.d_model = 16;
  cfg.d_ff = 32;
  cfg.n_heads = 2;
  cfg.n_layers = 1;
  cfg.seq_len = 12;
  Rng rng(3);
  BertModel model(cfg, rng);
  CorpusConfig cc;
  cc.vocab = cfg.vocab;
  SyntheticCorpus corpus(cc);
  MlmBatcherConfig bc;
  bc.seq_len = cfg.seq_len;
  MlmBatcher batcher(corpus, bc);
  TrainerConfig tc;
  tc.batch_size = 8;
  tc.total_steps = 80;
  tc.schedule = PolyWarmupSchedule(1e-2, 8, 80);
  KfacOptimizerOptions o;
  o.inverse_interval =
      static_cast<std::size_t>(rep.refresh_interval_steps);
  o.curvature_interval =
      static_cast<std::size_t>(rep.refresh_interval_steps);
  Trainer trainer(model, batcher,
                  std::make_unique<KfacOptimizer>(
                      model.kfac_linears(), std::make_unique<Lamb>(), o),
                  tc);
  const auto trace = trainer.run();
  EXPECT_LT(trace.loss.back(), trace.loss.front());
}

TEST(Integration, ParallelGemmTrainingIsBitwiseIdenticalToSerial) {
  // End-to-end guarantee behind the gemm_threads count: a full K-FAC
  // training run (forward, backward, curvature, precondition, optimizer),
  // its K-FAC optimizer under the trainer's context, produces the exact
  // same loss trajectory with row-block parallel GEMMs as with the serial
  // seed kernels.
  auto run_short_training = [](int threads) {
    BertConfig cfg;
    cfg.vocab = 36;
    cfg.d_model = 16;
    cfg.d_ff = 32;
    cfg.n_heads = 2;
    cfg.n_layers = 1;
    cfg.seq_len = 12;
    Rng rng(3);
    BertModel model(cfg, rng);
    CorpusConfig cc;
    cc.vocab = cfg.vocab;
    SyntheticCorpus corpus(cc);
    MlmBatcherConfig bc;
    bc.seq_len = cfg.seq_len;
    MlmBatcher batcher(corpus, bc);
    TrainerConfig tc;
    tc.batch_size = 8;
    tc.total_steps = 25;
    tc.schedule = PolyWarmupSchedule(1e-2, 4, 25);
    tc.exec = ExecContext(1, threads);
    KfacOptimizerOptions o;
    o.inverse_interval = 3;
    Trainer trainer(model, batcher,
                    std::make_unique<KfacOptimizer>(model.kfac_linears(),
                                                    std::make_unique<Lamb>(),
                                                    o, tc.exec),
                    tc);
    return trainer.run().loss;
  };
  const auto serial = run_short_training(1);
  const auto parallel = run_short_training(4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i)
    EXPECT_EQ(serial[i], parallel[i]) << "step " << i;
}

TEST(Integration, PerfModelRefreshMatchesSimulatedAssignerRoughly) {
  // The closed-form ceil((N·Tcurv+Tinv)/Tbubble) and the discrete-event
  // greedy assigner must agree on the refresh interval within a step or
  // two (the assigner additionally respects readiness times).
  for (const char* sched : {"gpipe", "chimera"}) {
    PipeFisherConfig cfg;
    cfg.schedule = sched;
    cfg.arch = bert_base();
    cfg.hw = p100();
    cfg.n_stages = 8;
    cfg.blocks_per_stage = 1;
    cfg.n_micro = 8;
    cfg.b_micro = 16;
    cfg.model_p2p = false;
    const auto rep = run_pipefisher(cfg);

    PerfModelInput in;
    in.cfg = cfg.arch;
    in.hw = cfg.hw;
    in.schedule = sched;
    in.depth = 8;
    in.n_micro = 8;
    in.b_micro = 16;
    const auto pm = run_perf_model(in);
    EXPECT_LE(std::abs(rep.refresh_interval_steps - pm.refresh_steps), 2)
        << sched << ": simulated " << rep.refresh_interval_steps
        << " vs model " << pm.refresh_steps;
  }
}

TEST(Integration, UtilizationGainMatchesBubbleAccounting) {
  // utilization_after - utilization_before ≈ (filled work)/(window), a
  // conservation law of the assigner.
  PipeFisherConfig cfg;
  cfg.schedule = "gpipe";
  cfg.arch = bert_base();
  cfg.hw = p100();
  cfg.n_stages = 4;
  cfg.blocks_per_stage = 3;
  cfg.n_micro = 4;
  cfg.b_micro = 32;
  const auto rep = run_pipefisher(cfg);
  const double window =
      static_cast<double>(rep.refresh_interval_steps) * rep.step_time;
  const double filled_fraction =
      rep.curv_inv_seconds_per_device / window;
  // PipeFisher utilization ≈ baseline-with-precondition + filled work.
  const double base_with_prec =
      rep.pipefisher_window.utilization(0.0, window) - filled_fraction;
  EXPECT_NEAR(rep.utilization, base_with_prec + filled_fraction, 1e-9);
  EXPECT_GT(filled_fraction, 0.1);
}

TEST(Integration, ChromeTraceOfFullRunIsWellFormed) {
  PipeFisherConfig cfg;
  cfg.schedule = "chimera";
  cfg.arch = bert_base();
  cfg.hw = p100();
  cfg.n_stages = 4;
  cfg.blocks_per_stage = 1;
  cfg.n_micro = 4;
  cfg.b_micro = 8;
  const auto rep = run_pipefisher(cfg);
  const std::string json = to_chrome_trace_json(rep.pipefisher_window);
  // Balanced brackets and one event per interval.
  long braces = 0;
  std::size_t events = 0;
  for (char c : json) {
    if (c == '{') {
      ++braces;
      ++events;
    }
    if (c == '}') --braces;
  }
  EXPECT_EQ(braces, 0);
  std::size_t intervals = 0;
  for (std::size_t d = 0; d < rep.pipefisher_window.n_devices(); ++d)
    intervals += rep.pipefisher_window.device_intervals(d).size();
  // args objects add one brace pair per event.
  EXPECT_EQ(events, 2 * intervals);
}

TEST(Integration, LambVsKfacConvergenceShapeHolds) {
  // A miniature end-to-end Figure 7: K-FAC's smoothed loss at every late
  // checkpoint is at or below LAMB's. Kept small for test runtime; the
  // full-size version is bench/fig07_convergence.
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
  const std::size_t steps = 120;

  auto run = [&](bool kfac) {
    Rng rng(7);
    BertModel model(cfg, rng);
    TrainerConfig tc;
    tc.batch_size = 16;
    tc.total_steps = steps;
    tc.schedule = PolyWarmupSchedule(2e-2, kfac ? 10 : 34, steps);
    std::unique_ptr<Optimizer> opt;
    if (kfac) {
      KfacOptimizerOptions o;
      o.inverse_interval = 3;
      opt = std::make_unique<KfacOptimizer>(model.kfac_linears(),
                                            std::make_unique<Lamb>(), o);
    } else {
      opt = std::make_unique<Lamb>();
    }
    Trainer t(model, batcher, std::move(opt), tc);
    return t.run();
  };
  const auto lamb = run(false);
  const auto kfac = run(true);
  const auto ls = smooth_moving_average(lamb.loss, 10);
  const auto ks = smooth_moving_average(kfac.loss, 10);
  // At the end of the run K-FAC should be at least as good.
  EXPECT_LE(ks.back(), ls.back() + 0.05);
}

}  // namespace
}  // namespace pf
