// Tests for src/optim: LAMB, the paper's LR schedule, and the K-FAC
// optimizer wrapper, against the plain-SGD reference (tests/support). Convergence checks use small quadratic and
// ill-conditioned problems where second-order preconditioning provably wins.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "src/common/check.h"
#include "src/linalg/gemm.h"
#include "src/nn/loss.h"
#include "src/optim/kfac_optimizer.h"
#include "src/optim/lamb.h"
#include "src/optim/lr_schedule.h"
#include "tests/support/matrix_util.h"
#include "tests/support/sgd.h"

namespace pf {
namespace {

// Quadratic loss 0.5‖w − target‖² over a single Param.
double quadratic_loss_and_grad(Param& p, const Matrix& target) {
  double loss = 0.0;
  for (std::size_t i = 0; i < p.w.rows(); ++i)
    for (std::size_t j = 0; j < p.w.cols(); ++j) {
      const double d = p.w(i, j) - target(i, j);
      loss += 0.5 * d * d;
      p.g(i, j) = d;
    }
  return loss;
}

template <typename Opt>
double optimize_quadratic(Opt& opt, double lr, int steps) {
  Rng rng(7);
  Param p(3, 3, "w");
  p.w = Matrix::randn(3, 3, rng);
  const Matrix target = Matrix::randn(3, 3, rng);
  double loss = 0.0;
  for (int i = 0; i < steps; ++i) {
    p.zero_grad();
    loss = quadratic_loss_and_grad(p, target);
    opt.step({&p}, lr);
  }
  return loss;
}

TEST(Sgd, ConvergesOnQuadratic) {
  Sgd opt;
  EXPECT_LT(optimize_quadratic(opt, 0.5, 100), 1e-10);
}

TEST(Lamb, ConvergesOnQuadratic) {
  Lamb opt(0.9, 0.999, 1e-6, 0.0);
  EXPECT_LT(optimize_quadratic(opt, 0.05, 400), 1e-4);
}

// One LAMB step from zero moments with wd = 0 and a gradient of 1 at
// (0, 0) only: the update there is m̂/(√v̂+ε) = 1/(1+ε) and 0 elsewhere,
// so the weight moves by lr·trust/(1+ε) and the trust ratio can be read
// back from that move.
double first_step_trust_ratio(double max_trust, const Matrix& w,
                              double lr) {
  Lamb opt(0.9, 0.999, 1e-6, 0.0, max_trust);
  Param p(w.rows(), w.cols(), "w");
  p.w = w;
  p.g = Matrix(w.rows(), w.cols(), 0.0);
  p.g(0, 0) = 1.0;
  opt.step({&p}, lr);
  for (std::size_t i = 1; i < w.size(); ++i)
    EXPECT_EQ(p.w.data()[i], w.data()[i]) << "only (0, 0) has an update";
  return (w(0, 0) - p.w(0, 0)) / lr * (1.0 + 1e-6);
}

TEST(Lamb, TrustRatioIsNormRatio) {
  // ‖w‖ = 5 and ‖update‖ = 1/(1+ε): the ratio is 5(1+ε).
  EXPECT_NEAR(first_step_trust_ratio(1e9, from_rows({{3, 0}, {0, 4}}), 1.0),
              5.0, 0.01);
}

TEST(Lamb, TrustRatioClamped) {
  // ‖w‖/‖update‖ ≈ 1e6, clamped to max_trust.
  const Matrix w = from_rows({{1e6, 0.0}});
  EXPECT_NEAR(first_step_trust_ratio(10.0, w, 1.0), 10.0, 1e-8);
  EXPECT_NEAR(first_step_trust_ratio(1e9, w, 1e-3), 1e6 * (1.0 + 1e-6), 1e-3);
}

TEST(LrSchedule, WarmupThenPolyDecay) {
  // The paper's Phase-1 schedule: base 6e-3, warmup 2000, total 7038.
  PolyWarmupSchedule s(6e-3, 2000, 7038);
  EXPECT_NEAR(s.lr(0), 6e-3 / 2000, 1e-9);
  EXPECT_NEAR(s.lr(999), 6e-3 * 0.5, 1e-5);
  EXPECT_NEAR(s.lr(1999), 6e-3, 1e-8);
  // After warmup: 6e-3·(1 − t/total)^0.5.
  EXPECT_NEAR(s.lr(3519), 6e-3 * std::sqrt(1.0 - 3519.0 / 7038.0), 1e-9);
  EXPECT_LT(s.lr(7000), 6e-4);
}

TEST(LrSchedule, ShorterWarmupGivesLargerEarlyRates) {
  // The K-FAC run warms up in 600 steps instead of 2000 — its LR dominates
  // until step ~2000 (paper Figure 8).
  PolyWarmupSchedule nvlamb(6e-3, 2000, 7038);
  PolyWarmupSchedule kfac(6e-3, 600, 7038);
  for (std::size_t t : {100u, 500u, 1000u, 1500u, 1700u})
    EXPECT_GT(kfac.lr(t), nvlamb.lr(t)) << "t=" << t;
  // And they coincide after warmup.
  EXPECT_NEAR(kfac.lr(2500), nvlamb.lr(2500), 1e-9);
}

TEST(LrSchedule, RejectsBadConfigs) {
  EXPECT_THROW(PolyWarmupSchedule(0.0, 10, 100), Error);
  EXPECT_THROW(PolyWarmupSchedule(1.0, 100, 100), Error);
}

// Ill-conditioned softmax classification with a linear teacher: feature c
// has scale ∝ 3^c, so the input covariance A is badly conditioned and plain
// SGD crawls along the small-scale directions. K-FAC normalizes A (and the
// empirical Fisher of a cross-entropy loss is a faithful curvature
// estimate, unlike plain regression residuals), so at the SAME learning
// rate it converges measurably faster.
struct IllConditionedProblem {
  IllConditionedProblem() : rng(31), layer(6, 4, rng, "layer", 0.0) {
    teacher = Matrix::randn(6, 4, rng);
  }

  double run_step(Optimizer& opt, double lr) {
    Matrix x = Matrix::randn(64, 6, rng);
    for (std::size_t r = 0; r < x.rows(); ++r)
      for (std::size_t c = 0; c < 6; ++c)
        x(r, c) *= std::pow(3.0, static_cast<double>(c)) / 81.0;
    const Matrix teacher_logits = matmul(x, teacher);
    std::vector<int> labels;
    for (std::size_t r = 0; r < x.rows(); ++r) {
      std::size_t best = 0;
      for (std::size_t c = 1; c < 4; ++c)
        if (teacher_logits(r, c) > teacher_logits(r, best)) best = c;
      labels.push_back(static_cast<int>(best));
    }
    const Matrix y = layer.forward(x, true);
    const auto res = softmax_cross_entropy(y, labels);
    zero_grads(layer.params());
    layer.backward(res.dlogits);
    opt.step(layer.params(), lr);
    return res.loss;
  }

  Rng rng;
  Linear layer;
  Matrix teacher;
};

TEST(KfacOptimizer, BeatsSgdOnIllConditionedClassification) {
  const double lr = 0.5;
  IllConditionedProblem sgd_problem;
  Sgd sgd;
  double sgd_loss = 0.0;
  for (int i = 0; i < 200; ++i) sgd_loss = sgd_problem.run_step(sgd, lr);

  IllConditionedProblem kfac_problem;
  KfacOptimizer kfac({&kfac_problem.layer}, std::make_unique<Sgd>(),
                     KfacOptimizerOptions{});
  double kfac_loss = 0.0;
  for (int i = 0; i < 200; ++i) kfac_loss = kfac_problem.run_step(kfac, lr);

  EXPECT_LT(kfac_loss, sgd_loss * 0.7)
      << "kfac=" << kfac_loss << " sgd=" << sgd_loss;
}

TEST(KfacOptimizer, IntervalsControlRefreshCounts) {
  Rng rng(37);
  Linear l(3, 3, rng, "l");
  KfacOptimizerOptions opts;
  opts.curvature_interval = 2;
  opts.inverse_interval = 4;
  KfacOptimizer opt({&l}, std::make_unique<Sgd>(), opts);
  const Matrix x = Matrix::randn(4, 3, rng);
  const Matrix dy = Matrix::randn(4, 3, rng);
  for (int i = 0; i < 8; ++i) {
    zero_grads(l.params());
    l.forward(x, true);
    l.backward(dy);
    opt.step(l.params(), 0.0);
  }
  // Steps 0,2,4,6 → 4 curvature updates; steps 0,4 → 2 inversions.
  EXPECT_EQ(opt.engine().state(0).curvature_updates, 4u);
  EXPECT_EQ(opt.engine().state(0).inverse_updates, 2u);
}

TEST(KfacOptimizer, RejectsNullBase) {
  Rng rng(41);
  Linear l(2, 2, rng, "l");
  EXPECT_THROW(KfacOptimizer({&l}, nullptr, KfacOptimizerOptions{}), Error);
}

}  // namespace
}  // namespace pf
