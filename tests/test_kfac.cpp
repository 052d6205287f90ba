// Tests for src/kfac: curvature capture, damped inversion, preconditioning,
// and the mathematical soundness of the Kronecker approximation on a layer
// whose Fisher can be materialized exactly.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/common/check.h"
#include "src/common/thread_pool.h"
#include "src/kfac/kfac_engine.h"
#include "src/linalg/cholesky.h"
#include "src/linalg/gemm.h"
#include "src/nn/attention.h"
#include "tests/support/kron.h"
#include "tests/support/matrix_util.h"
#include "tests/support/simd_levels.h"
#include "tests/support/triangular_solve.h"

namespace pf {
namespace {

// Runs one fake forward/backward through a linear to populate caches.
void fake_pass(Linear& l, const Matrix& x, const Matrix& dy) {
  l.forward(x, true);
  l.backward(dy);
}

double mean_diagonal(const Matrix& m) {
  double t = 0.0;
  for (std::size_t i = 0; i < m.rows(); ++i) t += m(i, i);
  return t / static_cast<double>(m.rows());
}

// The damping the engine adds to each factor: γ = sqrt(kKfacDamping) split
// by π = sqrt(mean diag A / mean diag B) of the bias-corrected factors.
std::pair<double, double> pi_split_damping(const Matrix& a, const Matrix& b) {
  const double gamma = std::sqrt(kKfacDamping);
  const double pi = std::sqrt(mean_diagonal(a) / mean_diagonal(b));
  return {gamma * pi, gamma / pi};
}

TEST(KfacEngine, CurvatureMatchesDefinition) {
  Rng rng(3);
  Linear l(3, 2, rng, "l");
  KfacEngine engine({&l});

  const Matrix x = Matrix::randn(8, 3, rng);
  const Matrix dy = Matrix::randn(8, 2, rng);
  zero_grads(l.params());
  fake_pass(l, x, dy);
  engine.update_curvature();

  // Bias-corrected EMA after one update equals the raw estimate.
  const Matrix a = engine.state(0).corrected_a(kKfacEmaDecay);
  Matrix a_expect = matmul_tn(x, x);
  a_expect *= 1.0 / 8.0;
  EXPECT_LT(max_abs_diff(a, a_expect), 1e-10);

  const Matrix b = engine.state(0).corrected_b(kKfacEmaDecay);
  Matrix b_expect = matmul_tn(dy, dy);
  b_expect *= 8.0;
  EXPECT_LT(max_abs_diff(b, b_expect), 1e-10);
}

TEST(KfacEngine, EmaAveragesAcrossUpdates) {
  Rng rng(5);
  Linear l(2, 2, rng, "l");
  KfacEngine engine({&l});
  // Two identical passes → corrected EMA equals the single-pass estimate.
  const Matrix x = Matrix::randn(4, 2, rng);
  const Matrix dy = Matrix::randn(4, 2, rng);
  fake_pass(l, x, dy);
  engine.update_curvature();
  const Matrix a1 = engine.state(0).corrected_a(kKfacEmaDecay);
  fake_pass(l, x, dy);
  engine.update_curvature();
  const Matrix a2 = engine.state(0).corrected_a(kKfacEmaDecay);
  EXPECT_LT(max_abs_diff(a1, a2), 1e-10);
}

TEST(KfacEngine, InversesAreDampedInverses) {
  Rng rng(7);
  Linear l(3, 2, rng, "l");
  KfacEngine engine({&l});
  const Matrix x = Matrix::randn(16, 3, rng);
  const Matrix dy = Matrix::randn(16, 2, rng);
  fake_pass(l, x, dy);
  engine.update_curvature();
  engine.update_inverses();

  Matrix a = engine.state(0).corrected_a(kKfacEmaDecay);
  Matrix b = engine.state(0).corrected_b(kKfacEmaDecay);
  const auto [damp_a, damp_b] = pi_split_damping(a, b);
  add_diagonal(a, damp_a);
  add_diagonal(b, damp_b);
  EXPECT_LT(max_abs_diff(matmul(engine.state(0).a_inv, a),
                         identity(3)),
            1e-8);
  EXPECT_LT(max_abs_diff(matmul(engine.state(0).b_inv, b),
                         identity(2)),
            1e-8);
}

TEST(KfacEngine, PreconditionAppliesBothInverses) {
  Rng rng(9);
  Linear l(3, 2, rng, "l");
  KfacEngine engine({&l});
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
  KfacEngine engine({&l});
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
  KfacEngine engine({&used, &unused});
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
  KfacEngine engine({&l});
  Matrix x = Matrix::randn(8, 4, rng);
  x *= 100.0;  // huge activations → tr(A) >> tr(B)
  Matrix dy = Matrix::randn(8, 4, rng);
  dy *= 0.001;
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

  KfacEngine engine({&l});
  zero_grads(l.params());
  fake_pass(l, x, dy);
  engine.update_curvature();
  engine.update_inverses();
  const Matrix g = l.weight().g;  // [din × dout]
  engine.precondition();

  // Exact: solve (K + damping-structure) vec(G)... with A = a aᵀ exactly,
  // K-FAC's (A+πγI)⁻¹ G (B+γ/π I)⁻¹ differs from (A⊗B + ...)⁻¹ only
  // through the damping cross terms; use matching damped factors for the
  // check.
  Matrix af = engine.state(0).corrected_a(kKfacEmaDecay);
  Matrix bf = engine.state(0).corrected_b(kKfacEmaDecay);
  const auto [damp_a, damp_b] = pi_split_damping(af, bf);
  add_diagonal(af, damp_a);
  add_diagonal(bf, damp_b);
  // vec convention: G[din × dout]; (A ⊗ B) with vec_cols(Gᵀ)... Use the
  // direct identity instead: expected = af⁻¹ · G · bf⁻¹.
  const Matrix expect = matmul(matmul(spd_inverse(af), g), spd_inverse(bf));
  EXPECT_LT(max_abs_diff(l.weight().g, expect), 1e-8);
  // And that equals the materialized Kronecker solve of (bf ⊗ af).
  const auto flat = cholesky_solve(cholesky(kron(bf, af)), vec_cols(g));
  const Matrix expect2 = unvec_cols(flat, din, dout);
  EXPECT_LT(max_abs_diff(l.weight().g, expect2), 1e-7);
}

// Two steps of K-FAC work on four layers of uneven widths (so layer chunks
// carry different work; the 70-wide one spans two Cholesky panels) under
// `ctx`, through the per-factor methods (two micros per layer) or the
// whole-model ones. Returns every factor, inverse and preconditioned
// gradient.
std::vector<Matrix> run_engine(const ExecContext& ctx, bool per_factor) {
  Rng rng(31);
  Linear l0(5, 3, rng, "l0");
  Linear l1(70, 2, rng, "l1");
  Linear l2(4, 33, rng, "l2");
  Linear l3(3, 3, rng, "l3");
  const std::vector<Linear*> layers = {&l0, &l1, &l2, &l3};
  KfacEngine engine(layers);
  for (int step = 0; step < 2; ++step) {
    for (std::size_t i = 0; i < layers.size(); ++i) {
      Linear& l = *layers[i];
      zero_grads(l.params());
      fake_pass(l, Matrix::randn(48, l.d_in(), rng),
                Matrix::randn(48, l.d_out(), rng));
      if (!per_factor) continue;
      for (int micro = 0; micro < 2; ++micro) {
        engine.accumulate_curvature_a(i, Matrix::randn(24, l.d_in(), rng),
                                      ctx);
        engine.accumulate_curvature_b(i, Matrix::randn(24, l.d_out(), rng),
                                      ctx);
      }
      engine.commit_curvature_layer(i);
      engine.update_inverse_factor(i, /*b_side=*/false, ctx);
      engine.update_inverse_factor(i, /*b_side=*/true, ctx);
      engine.precondition_layer(i, ctx);
    }
    if (per_factor) continue;
    engine.update_curvature(ctx);
    engine.update_inverses(ctx);
    engine.precondition(ctx);
  }
  std::vector<Matrix> out;
  for (std::size_t i = 0; i < layers.size(); ++i) {
    const KfacFactorState& st = engine.state(i);
    out.insert(out.end(), {st.a_ema, st.b_ema, st.a_inv, st.b_inv,
                           layers[i]->weight().g});
  }
  return out;
}

TEST(KfacEngine, EveryContextMatchesTheSerialEngineBitForBit) {
  // A method's only thread input is its ExecContext: nn_threads chunks the
  // whole-model layer loops, gemm_threads the row blocks of each layer's
  // GEMMs and Choleskys, both on the context's pool. Layers are
  // independent and every kernel keeps the serial accumulation order, so
  // every count must reproduce the serial engine on each SIMD tier.
  ThreadPool pool(3);
  for (const SimdLevel level : host_simd_levels()) {
    ScopedSimdLevel guard(level);
    for (const bool per_factor : {true, false}) {
      const auto serial = run_engine(ExecContext(), per_factor);
      for (const int n : {1, 2, 3}) {
        for (const int m : {1, 2, 3}) {
          const auto got = run_engine(ExecContext(n, m, &pool), per_factor);
          ASSERT_EQ(serial.size(), got.size());
          for (std::size_t i = 0; i < serial.size(); ++i)
            EXPECT_EQ(max_abs_diff(serial[i], got[i]), 0.0)
                << simd_level_name(level)
                << (per_factor ? " per-factor" : " whole-model")
                << " nn_threads=" << n << " gemm_threads=" << m
                << " layer " << i / 5 << " matrix " << i % 5;
        }
      }
    }
  }
}

TEST(KfacEngine, NonFiniteCurvatureFailsAtCommitNamingTheLayer) {
  // One NaN or overflowing entry in a micro's x (or dy) reaches the diagonal
  // of its factor. The commit that would fold it into the EMA must fail and
  // name the layer, the side and the update — not the next inversion, with
  // a NaN π-damping check or "not positive definite" and no layer name.
  for (double bad : {std::nan(""), 1e200}) {
    for (char side : {'A', 'B'}) {
      Rng rng(41);
      Linear l(8, 8, rng, "blk0.attn.wq");
      KfacEngine engine({&l});
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
      const std::string label = "bad=" + std::to_string(bad) + " " + side;
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

      // update_curvature folds through the same commit check.
      KfacEngine fresh({&l});
      zero_grads(l.params());
      fake_pass(l, x, dy);
      EXPECT_THROW(fresh.update_curvature(), Error) << label;
      EXPECT_EQ(fresh.state(0).curvature_updates, 0u) << label;
    }
  }
}

TEST(KfacEngine, AttentionProjectionsShareOneAFactor) {
  // wq, wk and wv read one block input (attention.h), so the engine folds
  // one A factor for the three: wk and wv fold no curvature-A statistics
  // and take wq's A EMA at commit, after wq's. After two committed steps,
  // their A EMAs are wq's bytes and equal the EMA of Σ xᵀx / Σ N over each
  // step's block inputs, folded here with syrk_tn_acc. Two ways in: the
  // per-micro fold (two micros a step, the KfacOptimizer / pipeline path)
  // and the whole-model update_curvature (one micro a step) at nn_threads
  // 1-3. Each keeps its own B factor.
  const std::size_t batch = 2, seq = 4, d = 8;
  const auto same_bytes = [](const Matrix& a, const Matrix& b) {
    return a.same_shape(b) &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  ThreadPool pool(2);
  struct Way {
    int micros;
    ExecContext ctx;
  };
  for (const Way way : {Way{2, ExecContext()}, Way{1, ExecContext()},
                        Way{1, ExecContext(2, 1, &pool)},
                        Way{1, ExecContext(3, 2, &pool)}}) {
    const std::string label = way.micros == 2
                                  ? std::string("per-micro fold")
                                  : "update_curvature nn_threads=" +
                                        std::to_string(way.ctx.nn_threads());
    Rng rng(61);
    MultiHeadSelfAttention attn(d, 2, rng, "attn");
    const std::vector<Linear*> layers = attn.kfac_linears();
    KfacEngine engine(layers);
    ASSERT_EQ(engine.input_owner(0), 0u);
    ASSERT_EQ(engine.input_owner(1), 0u);
    ASSERT_EQ(engine.input_owner(2), 0u);
    ASSERT_EQ(engine.input_owner(3), 3u);
    Matrix a_ref(d, d, 0.0);
    for (int step = 0; step < 2; ++step) {
      Matrix sum(d, d, 0.0);
      double rows = 0.0;
      for (int m = 0; m < way.micros; ++m) {
        const Matrix x = Matrix::randn(batch * seq, d, rng);
        zero_grads(attn.params());
        attn.forward(x, batch, seq, true, way.ctx);
        attn.backward(Matrix::randn(batch * seq, d, rng), way.ctx);
        syrk_tn_acc(x, sum, 1.0);
        rows += static_cast<double>(x.rows());
        if (way.micros == 1) continue;
        EXPECT_THROW(engine.accumulate_curvature_a(1, x), Error) << label;
        for (std::size_t i = 0; i < layers.size(); ++i) {
          if (engine.input_owner(i) == i)
            engine.accumulate_curvature_a(i, layers[i]->cached_input());
          engine.accumulate_curvature_b(i, layers[i]->cached_output_grad());
        }
      }
      if (way.micros == 1) {
        engine.update_curvature(way.ctx);
      } else {
        // wk cannot commit before wq, whose A factor it takes.
        EXPECT_THROW(engine.commit_curvature_layer(1), Error) << label;
        for (std::size_t i = 0; i < layers.size(); ++i)
          engine.commit_curvature_layer(i);
      }
      sum *= 1.0 / rows;
      a_ref.axpby(kKfacEmaDecay, sum, 1.0 - kKfacEmaDecay);
    }
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_EQ(engine.state(i).curvature_updates, 2u) << label;
      EXPECT_TRUE(same_bytes(engine.state(i).a_ema, a_ref))
          << label << ": " << layers[i]->name();
    }
    EXPECT_FALSE(same_bytes(engine.state(1).b_ema, engine.state(0).b_ema))
        << label;
  }
}

TEST(KfacEngine, AnEngineWithNoLayersThrows) {
  EXPECT_THROW(KfacEngine(std::vector<Linear*>{}), Error);
}

}  // namespace
}  // namespace pf
