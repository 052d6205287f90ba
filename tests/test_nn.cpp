// Tests for src/nn: every hand-written backward pass is certified against
// central finite differences, plus shape/behavior checks.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/check.h"
#include "src/common/rng.h"
#include "src/nn/activations.h"
#include "src/nn/attention.h"
#include "src/nn/bert.h"
#include "src/nn/layer_norm.h"
#include "src/nn/linear.h"
#include "src/nn/loss.h"
#include "src/nn/transformer_block.h"
#include "tests/support/attention_reference.h"
#include "tests/support/bert_reference.h"
#include "tests/support/grad_check.h"
#include "tests/support/matrix_util.h"

namespace pf {
namespace {

constexpr double kGradTol = 2e-5;

// Simple scalar head so a matrix output becomes a loss: weighted sum.
double weighted_sum(const Matrix& y, const Matrix& weights) {
  double s = 0.0;
  for (std::size_t r = 0; r < y.rows(); ++r)
    for (std::size_t c = 0; c < y.cols(); ++c) s += y(r, c) * weights(r, c);
  return s;
}

TEST(Linear, ForwardMatchesManualComputation) {
  Rng rng(3);
  Linear l(2, 3, rng, "l");
  l.weight().w = from_rows({{1, 2, 3}, {4, 5, 6}});
  l.bias().w = from_rows({{0.5, -0.5, 0.0}});
  const Matrix x = from_rows({{1, 1}});
  const Matrix y = l.forward(x);
  EXPECT_DOUBLE_EQ(y(0, 0), 5.5);
  EXPECT_DOUBLE_EQ(y(0, 1), 6.5);
  EXPECT_DOUBLE_EQ(y(0, 2), 9.0);
}

TEST(Linear, GradCheck) {
  Rng rng(5);
  Linear l(4, 3, rng, "l");
  const Matrix x = Matrix::randn(6, 4, rng);
  const Matrix wsum = Matrix::randn(6, 3, rng);
  auto loss = [&]() { return weighted_sum(l.forward(x, false), wsum); };
  zero_grads(l.params());
  l.forward(x, true);
  l.backward(wsum);
  EXPECT_LT(max_grad_check_error(l.params(), loss, 12), kGradTol);
}

TEST(Linear, InputGradientMatchesFiniteDifference) {
  Rng rng(7);
  Linear l(3, 2, rng, "l");
  Matrix x = Matrix::randn(4, 3, rng);
  const Matrix wsum = Matrix::randn(4, 2, rng);
  l.forward(x, true);
  const Matrix dx = l.backward(wsum);
  const double eps = 1e-6;
  for (std::size_t r = 0; r < 4; ++r) {
    for (std::size_t c = 0; c < 3; ++c) {
      const double orig = x(r, c);
      x(r, c) = orig + eps;
      const double up = weighted_sum(l.forward(x, false), wsum);
      x(r, c) = orig - eps;
      const double down = weighted_sum(l.forward(x, false), wsum);
      x(r, c) = orig;
      EXPECT_NEAR(dx(r, c), (up - down) / (2 * eps), 1e-5);
    }
  }
}

TEST(Linear, KfacCachesCaptureActivationsAndErrors) {
  Rng rng(9);
  Linear l(3, 2, rng, "l");
  const Matrix x = Matrix::randn(5, 3, rng);
  const Matrix dy = Matrix::randn(5, 2, rng);
  l.forward(x, true);
  l.backward(dy);
  EXPECT_TRUE(l.has_kfac_caches());
  EXPECT_LT(max_abs_diff(l.cached_input(), x), 1e-15);
  EXPECT_LT(max_abs_diff(l.cached_output_grad(), dy), 1e-15);
}

TEST(Linear, TakeOverPathsEqualCopyingPaths) {
  // Handing x and dy over as rvalues instead of letting the layer copy them
  // changes no output, gradient or cached value, bit for bit; the
  // handed-over matrices are left empty. The fused backward takes dy over
  // the same way, and an inference forward of an rvalue caches nothing and
  // only reads x.
  Rng data_rng(11);
  const Matrix x = Matrix::randn(7, 5, data_rng);
  const Matrix dy = Matrix::randn(7, 3, data_rng);
  const Matrix dy2 = Matrix::randn(7, 3, data_rng);
  const auto bits = [](const Matrix& a, const Matrix& b) {
    return a.same_shape(b) &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
  };
  Rng rng_c(13), rng_t(13);
  Linear copying(5, 3, rng_c, "l"), taking(5, 3, rng_t, "l");
  zero_grads(copying.params());
  zero_grads(taking.params());
  const auto same_state = [&] {
    EXPECT_TRUE(bits(taking.weight().g, copying.weight().g)) << "dW";
    EXPECT_TRUE(bits(taking.bias().g, copying.bias().g)) << "db";
    EXPECT_TRUE(bits(taking.cached_input(), copying.cached_input()));
    EXPECT_TRUE(
        bits(taking.cached_output_grad(), copying.cached_output_grad()));
  };

  const Matrix y_c = copying.forward(x, true);
  Matrix x_in = x;
  const Matrix y_t = taking.forward(std::move(x_in), true);
  EXPECT_TRUE(x_in.empty());
  EXPECT_TRUE(bits(y_t, y_c)) << "y";
  EXPECT_TRUE(bits(taking.cached_input(), x));

  const Matrix dx_c = copying.backward_dx(dy);
  Matrix dy_in = dy;
  const Matrix dx_t = taking.backward_dx(std::move(dy_in));
  EXPECT_TRUE(dy_in.empty());
  EXPECT_TRUE(bits(dx_t, dx_c)) << "dx";
  EXPECT_TRUE(bits(taking.cached_output_grad(), dy));
  copying.backward_dw();
  taking.backward_dw();
  same_state();

  // A second micro through the fused backward: the caches now hold
  // storage, which the copying path reuses and the taking path frees.
  copying.forward(x, true);
  taking.forward(Matrix(x), true);
  const Matrix dx2_c = copying.backward(dy2);
  const Matrix dx2_t = taking.backward(Matrix(dy2));
  EXPECT_TRUE(bits(dx2_t, dx2_c)) << "fused dx";
  same_state();

  Rng rng_i(13);
  Linear inference(5, 3, rng_i, "l");
  Rng rng_r(13);
  Linear reference(5, 3, rng_r, "l");
  Matrix x_inf = x;
  const Matrix y_i = inference.forward(std::move(x_inf), false);
  EXPECT_TRUE(bits(y_i, reference.forward(x, false)));
  EXPECT_TRUE(inference.cached_input().empty());
  EXPECT_TRUE(bits(x_inf, x));
}

TEST(LayerNorm, OutputIsNormalizedWithUnitGamma) {
  LayerNorm ln(8, "ln");
  Rng rng(11);
  const Matrix x = Matrix::randn(4, 8, rng, 3.0);
  const Matrix y = ln.forward(x);
  for (std::size_t r = 0; r < 4; ++r) {
    double mean = 0.0, var = 0.0;
    for (std::size_t c = 0; c < 8; ++c) mean += y(r, c);
    mean /= 8;
    for (std::size_t c = 0; c < 8; ++c)
      var += (y(r, c) - mean) * (y(r, c) - mean);
    var /= 8;
    EXPECT_NEAR(mean, 0.0, 1e-10);
    EXPECT_NEAR(var, 1.0, 1e-3);
  }
}

TEST(LayerNorm, GradCheck) {
  LayerNorm ln(6, "ln");
  Rng rng(13);
  const Matrix x = Matrix::randn(5, 6, rng);
  const Matrix wsum = Matrix::randn(5, 6, rng);
  auto loss = [&]() { return weighted_sum(ln.forward(x, false), wsum); };
  zero_grads(ln.params());
  ln.forward(x, true);
  ln.backward(wsum);
  EXPECT_LT(max_grad_check_error(ln.params(), loss, 12), kGradTol);
}

TEST(LayerNorm, InputGradientMatchesFiniteDifference) {
  LayerNorm ln(5, "ln");
  Rng rng(17);
  Matrix x = Matrix::randn(3, 5, rng);
  const Matrix wsum = Matrix::randn(3, 5, rng);
  ln.forward(x, true);
  const Matrix dx = ln.backward(wsum);
  const double eps = 1e-6;
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 5; ++c) {
      const double orig = x(r, c);
      x(r, c) = orig + eps;
      const double up = weighted_sum(ln.forward(x, false), wsum);
      x(r, c) = orig - eps;
      const double down = weighted_sum(ln.forward(x, false), wsum);
      x(r, c) = orig;
      EXPECT_NEAR(dx(r, c), (up - down) / (2 * eps), 2e-5);
    }
}

TEST(Gelu, KnownValuesAndMonotonicityNearZero) {
  Matrix x(1, 3);
  x(0, 0) = 0.0;
  x(0, 1) = 100.0;
  x(0, 2) = -100.0;
  const Matrix y = gelu(x);
  EXPECT_NEAR(y(0, 0), 0.0, 1e-12);
  EXPECT_NEAR(y(0, 1), 100.0, 1e-6);
  EXPECT_NEAR(y(0, 2), 0.0, 1e-6);
}

TEST(Gelu, BackwardMatchesFiniteDifference) {
  Rng rng(19);
  Matrix x = Matrix::randn(4, 4, rng);
  Matrix dy(4, 4, 1.0);
  const Matrix dx = gelu_backward(x, dy);
  const double eps = 1e-6;
  for (std::size_t r = 0; r < 4; ++r)
    for (std::size_t c = 0; c < 4; ++c) {
      const double orig = x(r, c);
      x(r, c) = orig + eps;
      const double up = gelu(x)(r, c);
      x(r, c) = orig - eps;
      const double down = gelu(x)(r, c);
      x(r, c) = orig;
      EXPECT_NEAR(dx(r, c), (up - down) / (2 * eps), 1e-6);
    }
}

// GELU and GELU' in long double with the library's constants, from expl so
// that no form subtracts numbers near ±1: 1 + tanh u = 2/(1 + e^{−2u}) and
// 1 − tanh u = 2/(1 + e^{2u}).
struct GeluReference {
  long double y, dydx;
};
GeluReference gelu_reference(double v) {
  const long double s = 0.7978845608028654, g = 0.044715, lv = v;
  const long double u = s * (lv + g * lv * lv * lv);
  const long double one_plus_t = 2.0L / (1.0L + expl(-2.0L * u));
  const long double one_minus_t = 2.0L / (1.0L + expl(2.0L * u));
  const long double du = s * (1.0L + 3.0L * g * lv * lv);
  return {0.5L * lv * one_plus_t,
          0.5L * one_plus_t + 0.5L * lv * one_plus_t * one_minus_t * du};
}

TEST(Gelu, ValueAndDerivativeWithinLongDoubleReference) {
  // Dense [−20, 20], activation-sized N(0, 0.05) draws, and ±2^k from far
  // below one to far into the saturated tails. GELU's error is measured
  // against max(1, |v|), so its tails are held to relative and its middle
  // to absolute accuracy; GELU' is bounded (below 1.13), so its error is
  // absolute. The 1 − tanh² form (std::tanh) missed that bound by 2.6x near
  // v = 7.2, where it cancels.
  std::vector<double> v;
  for (int i = 0; i <= 40000; ++i) v.push_back(-20.0 + i * 1e-3);
  Rng rng(31);
  for (int i = 0; i < 20000; ++i) v.push_back(rng.normal(0.0, 0.05));
  for (int k = -40; k <= 20; ++k) {
    v.push_back(std::ldexp(1.0, k));
    v.push_back(-std::ldexp(1.0, k));
  }
  Matrix x(1, v.size());
  for (std::size_t i = 0; i < v.size(); ++i) x(0, i) = v[i];
  const Matrix y = gelu(x);
  const Matrix dydx = gelu_backward(x, Matrix(1, v.size(), 1.0));
  double worst_y = 0.0, worst_d = 0.0, at_y = 0.0, at_d = 0.0;
  for (std::size_t i = 0; i < v.size(); ++i) {
    const GeluReference ref = gelu_reference(v[i]);
    const long double scale = std::max(1.0, std::fabs(v[i]));
    const double ey =
        static_cast<double>(std::fabs(y(0, i) - ref.y) / scale);
    const double ed = static_cast<double>(std::fabs(dydx(0, i) - ref.dydx));
    if (ey > worst_y) {
      worst_y = ey;
      at_y = v[i];
    }
    if (ed > worst_d) {
      worst_d = ed;
      at_d = v[i];
    }
  }
  EXPECT_LE(worst_y, 1e-15) << "GELU at v=" << at_y;
  EXPECT_LE(worst_d, 1e-15) << "GELU' at v=" << at_d;
}

TEST(Softmax, RowsSumToOne) {
  Rng rng(23);
  const Matrix p = softmax_rows(Matrix::randn(6, 9, rng, 4.0));
  for (std::size_t r = 0; r < 6; ++r) {
    double s = 0.0;
    for (std::size_t c = 0; c < 9; ++c) {
      EXPECT_GT(p(r, c), 0.0);
      s += p(r, c);
    }
    EXPECT_NEAR(s, 1.0, 1e-12);
  }
}

TEST(Softmax, StableUnderLargeLogits) {
  Matrix x(1, 2);
  x(0, 0) = 1e4;
  x(0, 1) = 1e4 - 1.0;
  const Matrix p = softmax_rows(x);
  EXPECT_TRUE(std::isfinite(p(0, 0)));
  EXPECT_NEAR(p(0, 0) + p(0, 1), 1.0, 1e-12);
  EXPECT_GT(p(0, 0), p(0, 1));
}

TEST(Softmax, RowBlocksGiveTheBitsOfSingleRows) {
  // softmax_rows runs four rows' chains side by side; each row must still
  // get the bits it gets alone (a 1-row input takes the single-row path).
  Rng rng(19);
  for (std::size_t rows : {1, 3, 4, 5, 9}) {
    const Matrix x = Matrix::randn(rows, 11, rng, 3.0);
    const Matrix dy = Matrix::randn(rows, 11, rng);
    const Matrix p = softmax_rows(x);
    const Matrix dx = softmax_rows_backward(p, dy);
    for (std::size_t r = 0; r < rows; ++r) {
      Matrix xr(1, 11), pr(1, 11), dyr(1, 11);
      for (std::size_t c = 0; c < 11; ++c) {
        xr(0, c) = x(r, c);
        pr(0, c) = p(r, c);
        dyr(0, c) = dy(r, c);
      }
      const Matrix p1 = softmax_rows(xr);
      const Matrix dx1 = softmax_rows_backward(pr, dyr);
      for (std::size_t c = 0; c < 11; ++c) {
        EXPECT_EQ(p(r, c), p1(0, c)) << "rows=" << rows << " r=" << r;
        EXPECT_EQ(dx(r, c), dx1(0, c)) << "rows=" << rows << " r=" << r;
      }
    }
  }
}

TEST(Softmax, EmptyRowsThrowNamingTheShape) {
  // A row without columns has no softmax; both entry points say so before
  // touching an element (the loss before its label check).
  const Matrix empty_rows(3, 0);
  try {
    softmax_rows(empty_rows);
    ADD_FAILURE() << "softmax_rows accepted a 3x0 input";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("3x0"), std::string::npos)
        << e.what();
  }
  EXPECT_THROW(softmax_cross_entropy(empty_rows, {0, 0, 0}), Error);
  EXPECT_THROW(softmax_cross_entropy(empty_rows, {-1, -1, -1}), Error);
  EXPECT_EQ(softmax_rows(Matrix(0, 4)).rows(), 0u);  // no rows: nothing to do
}

TEST(Attention, GradCheck) {
  Rng rng(29);
  MultiHeadSelfAttention attn(8, 2, rng, "attn");
  const std::size_t batch = 2, seq = 3;
  const Matrix x = Matrix::randn(batch * seq, 8, rng);
  const Matrix wsum = Matrix::randn(batch * seq, 8, rng);
  auto loss = [&]() {
    return weighted_sum(attn.forward(x, batch, seq, false), wsum);
  };
  zero_grads(attn.params());
  attn.forward(x, batch, seq, true);
  attn.backward(wsum);
  EXPECT_LT(max_grad_check_error(attn.params(), loss, 10), kGradTol);
}

TEST(Attention, SequencesDoNotLeakAcrossBatch) {
  // Changing sequence 1's input must not affect sequence 0's output.
  Rng rng(31);
  MultiHeadSelfAttention attn(8, 2, rng, "attn");
  const std::size_t batch = 2, seq = 4;
  Matrix x = Matrix::randn(batch * seq, 8, rng);
  const Matrix y1 = attn.forward(x, batch, seq, false);
  for (std::size_t s = 0; s < seq; ++s)
    for (std::size_t c = 0; c < 8; ++c) x(seq + s, c) += 1.0;
  const Matrix y2 = attn.forward(x, batch, seq, false);
  for (std::size_t s = 0; s < seq; ++s)
    for (std::size_t c = 0; c < 8; ++c)
      EXPECT_DOUBLE_EQ(y1(s, c), y2(s, c));
}

TEST(Attention, InferenceForwardLeavesTheBackwardCachesAlone) {
  // Train-forward x1, inference-forward x2, backward: dx and every parameter
  // gradient must keep the bits of train-forward x1 then backward, as for
  // the layers that write no cache when not training.
  const std::size_t batch = 2, seq = 8, d = 16;
  Rng data_rng(43);
  const Matrix x1 = Matrix::randn(batch * seq, d, data_rng);
  const Matrix x2 = Matrix::randn(batch * seq, d, data_rng);
  const Matrix dy = Matrix::randn(batch * seq, d, data_rng);
  const auto run = [&](bool infer_between) {
    Rng rng(47);
    MultiHeadSelfAttention attn(d, 2, rng, "attn");
    zero_grads(attn.params());
    attn.forward(x1, batch, seq, true);
    if (infer_between) attn.forward(x2, batch, seq, false);
    std::vector<Matrix> out{attn.backward(dy)};
    for (Param* p : attn.params()) out.push_back(p->g);
    return out;
  };
  const std::vector<Matrix> want = run(false), got = run(true);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].same_shape(want[i])) << "output " << i;
    EXPECT_EQ(std::memcmp(got[i].data(), want[i].data(),
                          got[i].size() * sizeof(double)),
              0)
        << (i == 0 ? "dx" : "gradient " + std::to_string(i - 1));
  }
}

TEST(Attention, RejectsIndivisibleHeadCount) {
  Rng rng(37);
  EXPECT_THROW(MultiHeadSelfAttention(10, 3, rng, "bad"), Error);
}

TEST(TransformerBlock, GradCheck) {
  Rng rng(41);
  TransformerBlock block(8, 16, 2, rng, "blk");
  const std::size_t batch = 2, seq = 3;
  const Matrix x = Matrix::randn(batch * seq, 8, rng);
  const Matrix wsum = Matrix::randn(batch * seq, 8, rng);
  auto loss = [&]() {
    return weighted_sum(block.forward(x, batch, seq, false), wsum);
  };
  zero_grads(block.params());
  block.forward(x, batch, seq, true);
  block.backward(wsum);
  // Deeper composite ⇒ larger finite-difference truncation error; 1e-4
  // still catches any real backward bug (those show up at ≥1e-2).
  EXPECT_LT(max_grad_check_error(block.params(), loss, 6), 1e-4);
}

TEST(TransformerBlock, SixKfacLinears) {
  Rng rng(43);
  TransformerBlock block(8, 16, 2, rng, "blk");
  const auto linears = block.kfac_linears();
  ASSERT_EQ(linears.size(), 6u);
  EXPECT_EQ(linears[4]->d_out(), 16u);  // W1
  EXPECT_EQ(linears[5]->d_in(), 16u);   // W2
}

TEST(Loss, CrossEntropyOfUniformLogitsIsLogC) {
  Matrix logits(4, 8, 0.0);
  std::vector<int> labels = {0, 3, 7, 2};
  const auto res = softmax_cross_entropy(logits, labels);
  EXPECT_NEAR(res.loss, std::log(8.0), 1e-12);
  EXPECT_EQ(res.counted, 4u);
}

TEST(Loss, IgnoredLabelsContributeNothing) {
  Matrix logits(3, 4, 0.0);
  logits(1, 2) = 100.0;  // row 1 ignored anyway
  std::vector<int> labels = {1, -1, 3};
  const auto res = softmax_cross_entropy(logits, labels);
  EXPECT_EQ(res.counted, 2u);
  for (std::size_t c = 0; c < 4; ++c)
    EXPECT_DOUBLE_EQ(res.dlogits(1, c), 0.0);
}

TEST(Loss, GradientMatchesFiniteDifference) {
  Rng rng(47);
  Matrix logits = Matrix::randn(5, 6, rng);
  std::vector<int> labels = {0, 2, -1, 5, 1};
  const auto res = softmax_cross_entropy(logits, labels);
  const double eps = 1e-6;
  for (std::size_t r = 0; r < 5; ++r)
    for (std::size_t c = 0; c < 6; ++c) {
      const double orig = logits(r, c);
      logits(r, c) = orig + eps;
      const double up = softmax_cross_entropy(logits, labels).loss;
      logits(r, c) = orig - eps;
      const double down = softmax_cross_entropy(logits, labels).loss;
      logits(r, c) = orig;
      EXPECT_NEAR(res.dlogits(r, c), (up - down) / (2 * eps), 1e-6);
    }
}

TEST(Loss, AllLabelsIgnoredGivesZeroLoss) {
  Matrix logits(2, 3, 1.0);
  const auto res = softmax_cross_entropy(logits, {-1, -1});
  EXPECT_DOUBLE_EQ(res.loss, 0.0);
  EXPECT_EQ(res.counted, 0u);
}

BertBatch tiny_batch(const BertConfig& cfg, std::uint64_t seed) {
  Rng rng(seed);
  BertBatch b;
  b.batch = 2;
  b.seq = cfg.seq_len;
  const std::size_t n = b.batch * b.seq;
  for (std::size_t i = 0; i < n; ++i) {
    b.ids.push_back(4 + static_cast<int>(rng.uniform_int(cfg.vocab - 4)));
    b.segments.push_back(static_cast<int>(i % cfg.seq_len) <
                                 static_cast<int>(cfg.seq_len / 2)
                             ? 0
                             : 1);
    b.mlm_labels.push_back(
        rng.bernoulli(0.2)
            ? 4 + static_cast<int>(rng.uniform_int(cfg.vocab - 4))
            : -1);
  }
  b.nsp_labels = {1, 0};
  return b;
}

TEST(Bert, FullModelGradCheck) {
  BertConfig cfg;
  cfg.vocab = 12;
  cfg.d_model = 8;
  cfg.d_ff = 16;
  cfg.n_heads = 2;
  cfg.n_layers = 2;
  cfg.seq_len = 6;
  Rng rng(53);
  BertModel model(cfg, rng);
  const auto batch = tiny_batch(cfg, 55);
  auto loss = [&]() { return evaluate_loss(model, batch).total; };
  zero_grads(model.params());
  model.train_step_backward(batch);
  EXPECT_LT(max_grad_check_error(model.params(), loss, 4), 5e-5);
}

TEST(Bert, LossStartsNearLogVocabPlusLog2) {
  BertConfig cfg;
  Rng rng(59);
  BertModel model(cfg, rng);
  const auto batch = tiny_batch(cfg, 61);
  const auto l = evaluate_loss(model, batch);
  EXPECT_NEAR(l.mlm, std::log(static_cast<double>(cfg.vocab)), 1.0);
  EXPECT_NEAR(l.nsp, std::log(2.0), 0.5);
  EXPECT_NEAR(l.total, l.mlm + l.nsp, 1e-12);
}

TEST(Bert, KfacLinearsExcludeHeads) {
  BertConfig cfg;
  cfg.n_layers = 3;
  Rng rng(67);
  BertModel model(cfg, rng);
  const auto linears = model.kfac_linears();
  EXPECT_EQ(linears.size(), 3u * 6u);
  for (Linear* l : linears) {
    EXPECT_NE(l->d_out(), cfg.vocab);  // MLM head excluded (paper §4)
    EXPECT_NE(l->d_out(), 2u);         // NSP head excluded
  }
}

TEST(Bert, ParamCountIsConsistent) {
  BertConfig cfg;
  Rng rng(71);
  BertModel model(cfg, rng);
  std::size_t expected = 0;
  for (Param* p : model.params()) expected += p->size();
  EXPECT_EQ(model.n_params(), expected);
  EXPECT_GT(model.n_params(), 10000u);
}

}  // namespace
}  // namespace pf
