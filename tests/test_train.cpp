// Tests for src/train: the pretraining loop actually learns, and the
// convergence comparison machinery behind Figure 7 works as specified.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/common/check.h"
#include "src/optim/lamb.h"
#include "src/train/convergence.h"
#include "src/train/trainer.h"

namespace pf {
namespace {

BertConfig tiny_config() {
  BertConfig cfg;
  cfg.vocab = 36;
  cfg.d_model = 16;
  cfg.d_ff = 32;
  cfg.n_heads = 2;
  cfg.n_layers = 1;
  cfg.seq_len = 12;
  return cfg;
}

TEST(Trainer, LossDecreasesUnderLamb) {
  const auto cfg = tiny_config();
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
  tc.total_steps = 300;
  // LAMB scales each step by its trust ratio; 1e-2 is the peak LR the
  // integration and NnThreads trainer runs give it too.
  tc.schedule = PolyWarmupSchedule(1e-2, 10, 300);
  Trainer trainer(model, batcher, std::make_unique<Lamb>(), tc);
  const auto trace = trainer.run();
  ASSERT_EQ(trace.loss.size(), 300u);
  // Average of first vs last 20 steps.
  double head = 0, tail = 0;
  for (int i = 0; i < 20; ++i) {
    head += trace.loss[static_cast<std::size_t>(i)];
    tail += trace.loss[trace.loss.size() - 1 - static_cast<std::size_t>(i)];
  }
  EXPECT_LT(tail / 20, head / 20 - 0.3);
  // Initial loss ≈ ln(vocab) + ln(2).
  EXPECT_NEAR(trace.loss.front(),
              std::log(static_cast<double>(cfg.vocab)) + std::log(2.0), 1.2);
}

TEST(Trainer, TraceRecordsScheduleLr) {
  const auto cfg = tiny_config();
  Rng rng(5);
  BertModel model(cfg, rng);
  CorpusConfig cc;
  cc.vocab = cfg.vocab;
  SyntheticCorpus corpus(cc);
  MlmBatcherConfig bc;
  bc.seq_len = cfg.seq_len;
  MlmBatcher batcher(corpus, bc);
  TrainerConfig tc;
  tc.batch_size = 2;
  tc.total_steps = 20;
  tc.schedule = PolyWarmupSchedule(1e-2, 5, 20);
  Trainer trainer(model, batcher, std::make_unique<Lamb>(), tc);
  const auto trace = trainer.run();
  for (std::size_t i = 0; i < 20; ++i)
    EXPECT_DOUBLE_EQ(trace.lr[i], tc.schedule.lr(i));
}

TEST(Convergence, FindsCrossingPoint) {
  TrainTrace base, chal;
  // Baseline: linear 10 → 5 over 100 steps. Challenger: 10 → 5 in 40 steps
  // then flat.
  for (int i = 0; i < 100; ++i)
    base.loss.push_back(10.0 - 5.0 * i / 99.0);
  for (int i = 0; i < 100; ++i)
    chal.loss.push_back(i < 40 ? 10.0 - 5.0 * i / 39.0 : 5.0);
  const auto cmp = compare_convergence(base, chal, 1.0, 1.2, 1);
  EXPECT_EQ(cmp.baseline_steps, 100);
  EXPECT_NEAR(cmp.challenger_steps_to_match, 39, 3);
  EXPECT_NEAR(cmp.step_fraction, 0.4, 0.05);
  // Time fraction folds in the 20% slower step.
  EXPECT_NEAR(cmp.time_fraction, 0.4 * 1.2, 0.06);
}

TEST(Convergence, HandlesChallengerNeverReaching) {
  TrainTrace base, chal;
  for (int i = 0; i < 50; ++i) {
    base.loss.push_back(1.0);
    chal.loss.push_back(2.0);
  }
  const auto cmp = compare_convergence(base, chal, 1.0, 1.0, 1);
  EXPECT_EQ(cmp.challenger_steps_to_match, -1);
  EXPECT_DOUBLE_EQ(cmp.step_fraction, 1.0);
}

TEST(Convergence, IgnoreFirstSkipsEarlyTransients) {
  // The paper ignores the fluctuation around step 1000; a spuriously low
  // dip early in the curve must not count.
  TrainTrace base, chal;
  for (int i = 0; i < 100; ++i) base.loss.push_back(5.0);
  for (int i = 0; i < 100; ++i)
    chal.loss.push_back(i == 3 ? 1.0 : (i < 80 ? 8.0 : 4.0));
  const auto with_ignore = compare_convergence(base, chal, 1.0, 1.0, 0, 10);
  EXPECT_GT(with_ignore.challenger_steps_to_match, 70);
}

TEST(Convergence, SmoothedFinalLoss) {
  TrainTrace t;
  for (int i = 0; i < 50; ++i)
    t.loss.push_back(2.0 + ((i % 2 == 0) ? 0.5 : -0.5));
  EXPECT_NEAR(t.final_loss_smoothed(10), 2.0, 0.05);
}

}  // namespace
}  // namespace pf
