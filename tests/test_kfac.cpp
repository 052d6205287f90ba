// Tests for src/kfac: curvature capture, damped inversion, preconditioning,
// and the mathematical soundness of the Kronecker approximation on a layer
// whose Fisher can be materialized exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "src/common/check.h"
#include "src/kfac/kfac_engine.h"
#include "src/linalg/cholesky.h"
#include "src/linalg/gemm.h"
#include "tests/support/kron.h"
#include "tests/support/triangular_solve.h"

namespace pf {
namespace {

// Runs one fake forward/backward through a linear to populate caches.
void fake_pass(Linear& l, const Matrix& x, const Matrix& dy) {
  l.forward(x, true);
  l.backward(dy);
}

TEST(KfacEngine, CurvatureMatchesDefinition) {
  Rng rng(3);
  Linear l(3, 2, rng, "l");
  KfacOptions opts;
  opts.ema_decay = 0.5;
  KfacEngine engine({&l}, opts);

  const Matrix x = Matrix::randn(8, 3, rng);
  const Matrix dy = Matrix::randn(8, 2, rng);
  zero_grads(l.params());
  fake_pass(l, x, dy);
  engine.update_curvature();

  // Bias-corrected EMA after one update equals the raw estimate.
  const Matrix a = engine.state(0).corrected_a(opts.ema_decay);
  Matrix a_expect = matmul_tn(x, x);
  a_expect *= 1.0 / 8.0;
  EXPECT_LT(max_abs_diff(a, a_expect), 1e-10);

  const Matrix b = engine.state(0).corrected_b(opts.ema_decay);
  Matrix b_expect = matmul_tn(dy, dy);
  b_expect *= 8.0;
  EXPECT_LT(max_abs_diff(b, b_expect), 1e-10);
}

TEST(KfacEngine, EmaAveragesAcrossUpdates) {
  Rng rng(5);
  Linear l(2, 2, rng, "l");
  KfacOptions opts;
  opts.ema_decay = 0.9;
  KfacEngine engine({&l}, opts);
  // Two identical passes → corrected EMA equals the single-pass estimate.
  const Matrix x = Matrix::randn(4, 2, rng);
  const Matrix dy = Matrix::randn(4, 2, rng);
  fake_pass(l, x, dy);
  engine.update_curvature();
  const Matrix a1 = engine.state(0).corrected_a(opts.ema_decay);
  fake_pass(l, x, dy);
  engine.update_curvature();
  const Matrix a2 = engine.state(0).corrected_a(opts.ema_decay);
  EXPECT_LT(max_abs_diff(a1, a2), 1e-10);
}

TEST(KfacEngine, InversesAreDampedInverses) {
  Rng rng(7);
  Linear l(3, 2, rng, "l");
  KfacOptions opts;
  opts.damping = 0.01;
  opts.pi_correction = false;
  KfacEngine engine({&l}, opts);
  const Matrix x = Matrix::randn(16, 3, rng);
  const Matrix dy = Matrix::randn(16, 2, rng);
  fake_pass(l, x, dy);
  engine.update_curvature();
  engine.update_inverses();

  const double gamma = std::sqrt(opts.damping);
  Matrix a = engine.state(0).corrected_a(opts.ema_decay);
  add_diagonal(a, gamma);
  EXPECT_LT(max_abs_diff(matmul(engine.state(0).a_inv, a),
                         Matrix::identity(3)),
            1e-8);
}

TEST(KfacEngine, PreconditionAppliesBothInverses) {
  Rng rng(9);
  Linear l(3, 2, rng, "l");
  KfacOptions opts;
  opts.pi_correction = false;
  KfacEngine engine({&l}, opts);
  const Matrix x = Matrix::randn(16, 3, rng);
  const Matrix dy = Matrix::randn(16, 2, rng);
  zero_grads(l.params());
  fake_pass(l, x, dy);
  engine.update_curvature();
  engine.update_inverses();

  const Matrix raw_grad = l.weight().g;
  engine.precondition();
  const Matrix expect = matmul(
      matmul(engine.state(0).a_inv, raw_grad), engine.state(0).b_inv);
  EXPECT_LT(max_abs_diff(l.weight().g, expect), 1e-10);
}

TEST(KfacEngine, PreconditionBeforeInversionIsIdentity) {
  // The paper's stale-inverse rule: before the first inversion, gradients
  // pass through unchanged.
  Rng rng(11);
  Linear l(3, 2, rng, "l");
  KfacEngine engine({&l}, KfacOptions{});
  const Matrix x = Matrix::randn(4, 3, rng);
  const Matrix dy = Matrix::randn(4, 2, rng);
  zero_grads(l.params());
  fake_pass(l, x, dy);
  const Matrix raw = l.weight().g;
  engine.precondition();
  EXPECT_LT(max_abs_diff(l.weight().g, raw), 1e-300);
}

TEST(KfacEngine, SkipsLayersWithoutCaches) {
  Rng rng(13);
  Linear used(2, 2, rng, "used");
  Linear unused(2, 2, rng, "unused");
  KfacEngine engine({&used, &unused}, KfacOptions{});
  fake_pass(used, Matrix::randn(4, 2, rng), Matrix::randn(4, 2, rng));
  engine.update_curvature();
  EXPECT_TRUE(engine.state(0).has_curvature());
  EXPECT_FALSE(engine.state(1).has_curvature());
  engine.update_inverses();
  EXPECT_TRUE(engine.state(0).has_inverse());
  EXPECT_FALSE(engine.state(1).has_inverse());
}

TEST(KfacEngine, PiCorrectionBalancesDamping) {
  // With wildly different factor scales, π-correction must keep the damped
  // inverses finite and better conditioned than naive equal damping.
  Rng rng(17);
  Linear l(4, 4, rng, "l");
  KfacOptions opts;
  opts.pi_correction = true;
  KfacEngine engine({&l}, opts);
  Matrix x = Matrix::randn(8, 4, rng);
  x *= 100.0;  // huge activations → tr(A) >> tr(B)
  const Matrix dy = Matrix::randn(8, 4, rng) * 0.001;
  fake_pass(l, x, dy);
  engine.update_curvature();
  engine.update_inverses();
  EXPECT_TRUE(std::isfinite(engine.state(0).a_inv.frobenius_norm()));
  EXPECT_TRUE(std::isfinite(engine.state(0).b_inv.frobenius_norm()));
}

TEST(KfacEngine, KroneckerApproximationMatchesExactFisherOnRankOneCase) {
  // When every example has identical activation a, the empirical Fisher of
  // the layer factorizes EXACTLY as (a aᵀ) ⊗ B. Verify the preconditioned
  // gradient equals the materialized-Fisher solve in that case.
  Rng rng(19);
  const std::size_t din = 3, dout = 2, n = 16;
  Linear l(din, dout, rng, "l");
  Matrix x(n, din);
  std::vector<double> a = {0.7, -1.2, 0.4};
  for (std::size_t r = 0; r < n; ++r)
    for (std::size_t c = 0; c < din; ++c) x(r, c) = a[c];
  const Matrix dy = Matrix::randn(n, dout, rng);

  KfacOptions opts;
  opts.damping = 1e-2;
  opts.pi_correction = false;
  KfacEngine engine({&l}, opts);
  zero_grads(l.params());
  fake_pass(l, x, dy);
  engine.update_curvature();
  engine.update_inverses();
  const Matrix g = l.weight().g;  // [din × dout]
  engine.precondition();

  // Exact: solve (K + damping-structure) vec(G)... with A = a aᵀ exactly,
  // K-FAC's (A+γI)⁻¹ G (B+γI)⁻¹ differs from (A⊗B + ...)⁻¹ only through
  // the damping cross terms; use matching damped factors for the check.
  const double gamma = std::sqrt(opts.damping);
  Matrix af = engine.state(0).corrected_a(opts.ema_decay);
  Matrix bf = engine.state(0).corrected_b(opts.ema_decay);
  add_diagonal(af, gamma);
  add_diagonal(bf, gamma);
  // vec convention: G[din × dout]; (A ⊗ B) with vec_cols(Gᵀ)... Use the
  // direct identity instead: expected = af⁻¹ · G · bf⁻¹.
  const Matrix expect = matmul(matmul(spd_inverse(af), g), spd_inverse(bf));
  EXPECT_LT(max_abs_diff(l.weight().g, expect), 1e-8);
  // And that equals the materialized Kronecker solve of (bf ⊗ af).
  const auto flat = cholesky_solve(cholesky(kron(bf, af)), vec_cols(g));
  const Matrix expect2 = unvec_cols(flat, din, dout);
  EXPECT_LT(max_abs_diff(l.weight().g, expect2), 1e-7);
}

TEST(KfacEngine, GemmThreadsKnobIsBitwiseNeutral) {
  // The gemm_threads option routes curvature and precondition through the
  // row-block parallel kernels; factors, inverses and preconditioned
  // gradients must stay bitwise identical to the serial engine.
  auto run_engine = [](int threads, Matrix* grad_out) {
    Rng rng(29);
    Linear l(5, 3, rng, "l");
    KfacOptions opts;
    opts.gemm_threads = threads;
    KfacEngine engine({&l}, opts);
    const Matrix x = Matrix::randn(32, 5, rng);
    const Matrix dy = Matrix::randn(32, 3, rng);
    zero_grads(l.params());
    fake_pass(l, x, dy);
    engine.update_curvature();
    engine.update_inverses();
    engine.precondition();
    *grad_out = l.weight().g;
    return std::pair<Matrix, Matrix>{engine.state(0).a_ema,
                                     engine.state(0).b_ema};
  };
  Matrix g_serial, g_parallel;
  const auto [a_serial, b_serial] = run_engine(1, &g_serial);
  const auto [a_parallel, b_parallel] = run_engine(4, &g_parallel);
  EXPECT_EQ(max_abs_diff(a_serial, a_parallel), 0.0);
  EXPECT_EQ(max_abs_diff(b_serial, b_parallel), 0.0);
  EXPECT_EQ(max_abs_diff(g_serial, g_parallel), 0.0);
}

TEST(KfacEngine, LayerThreadsKnobIsBitwiseNeutral) {
  // layer_threads fans the per-layer curvature/inversion/precondition loops
  // across the pool; layers are independent, so every value must reproduce
  // the serial engine exactly — factors, inverses, and preconditioned grads.
  // Layer widths are deliberately uneven so chunks carry different work.
  auto run_engine = [](int layer_threads, std::vector<Matrix>* grads) {
    Rng rng(31);
    Linear l0(5, 3, rng, "l0");
    Linear l1(7, 2, rng, "l1");
    Linear l2(4, 6, rng, "l2");
    Linear l3(3, 3, rng, "l3");
    std::vector<Linear*> layers = {&l0, &l1, &l2, &l3};
    KfacOptions opts;
    opts.layer_threads = layer_threads;
    KfacEngine engine(layers, opts);
    const std::size_t batch = 16;
    for (Linear* l : layers) {
      zero_grads(l->params());
      fake_pass(*l, Matrix::randn(batch, l->d_in(), rng),
                Matrix::randn(batch, l->d_out(), rng));
    }
    engine.update_curvature();
    engine.update_inverses();
    engine.precondition();
    grads->clear();
    std::vector<Matrix> factors;
    for (std::size_t i = 0; i < layers.size(); ++i) {
      grads->push_back(layers[i]->weight().g);
      factors.push_back(engine.state(i).a_ema);
      factors.push_back(engine.state(i).b_ema);
      factors.push_back(engine.state(i).a_inv);
      factors.push_back(engine.state(i).b_inv);
    }
    return factors;
  };
  std::vector<Matrix> g_serial, g_parallel;
  const auto f_serial = run_engine(1, &g_serial);
  for (int layer_threads : {2, 4, 16}) {
    const auto f_parallel = run_engine(layer_threads, &g_parallel);
    ASSERT_EQ(f_serial.size(), f_parallel.size());
    for (std::size_t i = 0; i < f_serial.size(); ++i)
      EXPECT_EQ(max_abs_diff(f_serial[i], f_parallel[i]), 0.0)
          << "factor " << i << " layer_threads=" << layer_threads;
    ASSERT_EQ(g_serial.size(), g_parallel.size());
    for (std::size_t i = 0; i < g_serial.size(); ++i)
      EXPECT_EQ(max_abs_diff(g_serial[i], g_parallel[i]), 0.0)
          << "grad " << i << " layer_threads=" << layer_threads;
  }
}

TEST(KfacEngine, GemmThreadsReachInversionWithoutChangingResults) {
  // gemm_threads now also routes the Cholesky-bound inversion work through
  // the pool (blocked factorization + column-parallel inverse); results must
  // stay bitwise identical to the serial engine.
  auto run_engine = [](int gemm_threads_opt) {
    Rng rng(37);
    Linear l(6, 4, rng, "l");
    KfacOptions opts;
    opts.gemm_threads = gemm_threads_opt;
    KfacEngine engine({&l}, opts);
    zero_grads(l.params());
    fake_pass(l, Matrix::randn(24, 6, rng), Matrix::randn(24, 4, rng));
    engine.update_curvature();
    engine.update_inverses();
    return std::pair<Matrix, Matrix>{engine.state(0).a_inv,
                                     engine.state(0).b_inv};
  };
  const auto [a1, b1] = run_engine(1);
  const auto [a4, b4] = run_engine(4);
  EXPECT_EQ(max_abs_diff(a1, a4), 0.0);
  EXPECT_EQ(max_abs_diff(b1, b4), 0.0);
}

TEST(KfacEngine, NonFiniteCurvatureFailsAtCommitNamingTheLayer) {
  // One NaN or overflowing entry in a micro's x (or dy) reaches the diagonal
  // of its factor. The commit that would fold it into the EMA must fail and
  // name the layer, the side and the update — not the next inversion, with
  // a NaN π-damping check or "not positive definite" and no layer name.
  for (bool pi_correction : {true, false}) {
    for (double bad : {std::nan(""), 1e200}) {
      for (char side : {'A', 'B'}) {
        Rng rng(41);
        Linear l(8, 8, rng, "blk0.attn.wq");
        KfacOptions opts;
        opts.pi_correction = pi_correction;
        KfacEngine engine({&l}, opts);
        Matrix x = Matrix::randn(16, 8, rng);
        Matrix dy = Matrix::randn(16, 8, rng);
        engine.accumulate_curvature_a(0, x);
        engine.accumulate_curvature_b(0, dy);
        engine.commit_curvature_layer(0);
        const Matrix a_ema = engine.state(0).a_ema;
        const Matrix b_ema = engine.state(0).b_ema;
        (side == 'A' ? x : dy)(5, 3) = bad;
        engine.accumulate_curvature_a(0, x);
        engine.accumulate_curvature_b(0, dy);
        const std::string what = [&] {
          try {
            engine.commit_curvature_layer(0);
          } catch (const Error& e) {
            return std::string(e.what());
          }
          return std::string("commit did not throw");
        }();
        const std::string label = std::string("pi=") +
                                  (pi_correction ? "on" : "off") +
                                  " bad=" + std::to_string(bad) + " " + side;
        EXPECT_NE(what.find("'blk0.attn.wq'"), std::string::npos)
            << label << ": " << what;
        EXPECT_NE(what.find(std::string("factor ") + side),
                  std::string::npos)
            << label << ": " << what;
        EXPECT_NE(what.find("curvature update 2"), std::string::npos)
            << label << ": " << what;
        // Nothing was folded: the EMAs and the update count are as before.
        EXPECT_EQ(engine.state(0).curvature_updates, 1u) << label;
        EXPECT_EQ(max_abs_diff(engine.state(0).a_ema, a_ema), 0.0) << label;
        EXPECT_EQ(max_abs_diff(engine.state(0).b_ema, b_ema), 0.0) << label;

        // The whole-step path checks the same diagonals.
        zero_grads(l.params());
        fake_pass(l, x, dy);
        EXPECT_THROW(engine.update_curvature(), Error) << label;
      }
    }
  }
}

TEST(KfacEngine, RejectsBadOptions) {
  Rng rng(23);
  Linear l(2, 2, rng, "l");
  KfacOptions bad;
  bad.ema_decay = 1.5;
  EXPECT_THROW(KfacEngine({&l}, bad), Error);
  bad = KfacOptions{};
  bad.damping = 0.0;
  EXPECT_THROW(KfacEngine({&l}, bad), Error);
  EXPECT_THROW(KfacEngine({}, KfacOptions{}), Error);
  // Thread counts below 1 fail at construction, naming the field.
  const std::pair<int KfacOptions::*, std::string> counts[] = {
      {&KfacOptions::gemm_threads, "KfacOptions::gemm_threads"},
      {&KfacOptions::layer_threads, "KfacOptions::layer_threads"}};
  for (const auto& [field, name] : counts) {
    bad = KfacOptions{};
    bad.*field = 0;
    try {
      KfacEngine engine({&l}, bad);
      ADD_FAILURE() << name << " = 0 was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find(name), std::string::npos)
          << e.what();
    }
  }
}

}  // namespace
}  // namespace pf
