// NnThreads: the determinism contract of the ExecContext refactor — every
// nn layer's forward/backward is bitwise identical across thread counts
// (threads ∈ {1, 2, 4}, serial vs threaded), for outputs, input gradients
// and parameter gradients, plus an end-to-end BERT step and a grad check
// run under a multi-threaded context. GELU, softmax and the loss are also
// pinned across SIMD tiers. See src/common/exec_context.h for the
// per-layer sharding arguments these tests pin down.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/common/exec_context.h"
#include "src/nn/activations.h"
#include "src/nn/attention.h"
#include "src/nn/bert.h"
#include "src/nn/embedding.h"
#include "src/nn/layer_norm.h"
#include "src/nn/linear.h"
#include "src/nn/loss.h"
#include "src/nn/transformer_block.h"
#include "src/optim/lamb.h"
#include "src/train/trainer.h"
#include "tests/support/attention_reference.h"
#include "tests/support/grad_check.h"
#include "tests/support/simd_levels.h"

namespace pf {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4};

void expect_bitwise(const Matrix& a, const Matrix& b, const char* what,
                    int threads) {
  ASSERT_TRUE(a.same_shape(b)) << what;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      ASSERT_EQ(a(r, c), b(r, c))
          << what << " differs at (" << r << "," << c << ") with threads="
          << threads;
}

TEST(NnThreads, LinearForwardBackwardBitwise) {
  Rng data_rng(101);
  const Matrix x = Matrix::randn(13, 24, data_rng);
  const Matrix dy = Matrix::randn(13, 40, data_rng);
  std::vector<Matrix> ref;  // y, dx, dW, db at threads=1
  for (int t : kThreadCounts) {
    const ExecContext ctx(t, t);
    Rng rng(7);
    Linear l(24, 40, rng, "l");
    const Matrix y = l.forward(x, true, ctx);
    const Matrix dx = l.backward(dy, ctx);
    if (t == 1) {
      ref = {y, dx, l.weight().g, l.bias().g};
    } else {
      expect_bitwise(y, ref[0], "Linear forward", t);
      expect_bitwise(dx, ref[1], "Linear dx", t);
      expect_bitwise(l.weight().g, ref[2], "Linear dW", t);
      expect_bitwise(l.bias().g, ref[3], "Linear db", t);
    }
  }
}

TEST(NnThreads, LayerNormForwardBackwardBitwise) {
  Rng data_rng(103);
  const Matrix x = Matrix::randn(17, 32, data_rng, 2.5);
  const Matrix dy = Matrix::randn(17, 32, data_rng);
  Matrix ref_y, ref_dx, ref_dgamma, ref_dbeta;
  for (int t : kThreadCounts) {
    const ExecContext ctx(t, t);
    LayerNorm ln(32, "ln");
    const Matrix y = ln.forward(x, true, ctx);
    const Matrix dx = ln.backward(dy, ctx);
    if (t == 1) {
      ref_y = y;
      ref_dx = dx;
      ref_dgamma = ln.params()[0]->g;
      ref_dbeta = ln.params()[1]->g;
    } else {
      expect_bitwise(y, ref_y, "LayerNorm forward", t);
      expect_bitwise(dx, ref_dx, "LayerNorm dx", t);
      expect_bitwise(ln.params()[0]->g, ref_dgamma, "LayerNorm dgamma", t);
      expect_bitwise(ln.params()[1]->g, ref_dbeta, "LayerNorm dbeta", t);
    }
  }
}

TEST(NnThreads, ActivationsBitwise) {
  Rng rng(107);
  const Matrix x = Matrix::randn(19, 21, rng, 1.5);
  const Matrix dy = Matrix::randn(19, 21, rng);
  const ExecContext serial;
  const Matrix g1 = gelu(x, serial);
  const Matrix gb1 = gelu_backward(x, dy, serial);
  const Matrix p1 = softmax_rows(x, serial);
  const Matrix sb1 = softmax_rows_backward(p1, dy, serial);
  for (int t : {2, 4}) {
    const ExecContext ctx(t, t);
    expect_bitwise(gelu(x, ctx), g1, "gelu", t);
    expect_bitwise(gelu_backward(x, dy, ctx), gb1, "gelu_backward", t);
    expect_bitwise(softmax_rows(x, ctx), p1, "softmax_rows", t);
    expect_bitwise(softmax_rows_backward(p1, dy, ctx), sb1,
                   "softmax_rows_backward", t);
  }
}

TEST(NnThreads, GeluLayerBackwardEqualsReferenceFromItsCache) {
  // The layer caches GELU'(x) at forward time; its backward must be the
  // stateless gelu_backward(x, dy) bit for bit at every thread count, and an
  // inference forward must leave the cache alone.
  Rng rng(109);
  const Matrix x = Matrix::randn(19, 21, rng, 1.5);
  const Matrix other = Matrix::randn(19, 21, rng, 1.5);
  const Matrix dy = Matrix::randn(19, 21, rng);
  const Matrix want = gelu_backward(x, dy, ExecContext());
  for (int t : kThreadCounts) {
    const ExecContext ctx(t, t);
    Gelu fresh;
    expect_bitwise(fresh.forward(x, /*training=*/false, ctx), gelu(x, ctx),
                   "Gelu inference forward", t);
    EXPECT_TRUE(fresh.save_cache().dydx.empty())
        << "inference forward wrote a cache, threads=" << t;

    Gelu g;
    expect_bitwise(g.forward(x, /*training=*/true, ctx), gelu(x, ctx),
                   "Gelu training forward", t);
    g.forward(other, /*training=*/false, ctx);  // must not touch the cache
    expect_bitwise(g.backward(dy, ctx), want, "Gelu backward", t);

    // A second training forward of the same shape refills the cache's own
    // storage instead of reallocating.
    Gelu::Cache c = g.save_cache();
    const double* storage = c.dydx.data();
    g.restore_cache(std::move(c));
    g.forward(x, /*training=*/true, ctx);
    c = g.save_cache();
    EXPECT_EQ(c.dydx.data(), storage) << "threads=" << t;
    g.restore_cache(std::move(c));
    expect_bitwise(g.backward(dy, ctx), want, "Gelu backward (refilled)", t);
  }
}

TEST(NnThreads, ActivationsAndLossBitwiseAcrossSimdTiers) {
  // GELU and softmax take their exponentials from exp_span, whose tiers
  // return the same bits, so every SIMD tier × thread count must reproduce
  // the scalar serial run bit for bit. Row lengths 1, 13 and 131 are not
  // multiples of any vector width.
  const auto levels = host_simd_levels();
  Rng rng(139);
  for (std::size_t cols : {1, 13, 131}) {
    const Matrix x = Matrix::randn(19, cols, rng, 3.0);
    const Matrix dy = Matrix::randn(19, cols, rng);
    std::vector<int> labels;
    for (std::size_t r = 0; r < 19; ++r)
      labels.push_back(r % 4 == 0 ? -1
                                  : static_cast<int>(rng.uniform_int(cols)));
    Matrix g, gb, layer_y, layer_dx, p, pb;
    LossResult loss;
    const auto run = [&](const ExecContext& ctx) {
      g = gelu(x, ctx);
      gb = gelu_backward(x, dy, ctx);
      Gelu layer;
      layer_y = layer.forward(x, /*training=*/true, ctx);
      layer_dx = layer.backward(dy, ctx);
      p = softmax_rows(x, ctx);
      pb = softmax_rows_backward(p, dy, ctx);
      loss = softmax_cross_entropy(x, labels, ctx);
    };
    {
      ScopedSimdLevel scalar(SimdLevel::kScalar);
      run(ExecContext());
    }
    const Matrix g1 = g, gb1 = gb, y1 = layer_y, dx1 = layer_dx, p1 = p,
                 pb1 = pb;
    const LossResult loss1 = loss;
    for (SimdLevel level : levels) {
      ScopedSimdLevel guard(level);
      for (int t : {1, 2, 3}) {
        SCOPED_TRACE(std::string(simd_level_name(level)) +
                     " cols=" + std::to_string(cols));
        run(ExecContext(t, t));
        expect_bitwise(g, g1, "gelu", t);
        expect_bitwise(gb, gb1, "gelu_backward", t);
        expect_bitwise(layer_y, y1, "Gelu forward", t);
        expect_bitwise(layer_dx, dx1, "Gelu backward", t);
        expect_bitwise(p, p1, "softmax_rows", t);
        expect_bitwise(pb, pb1, "softmax_rows_backward", t);
        EXPECT_EQ(loss.loss, loss1.loss) << "threads=" << t;
        expect_bitwise(loss.dlogits, loss1.dlogits, "loss dlogits", t);
      }
    }
  }
}

TEST(NnThreads, AttentionForwardBackwardBitwise) {
  const std::size_t batch = 3, seq = 5, d_model = 16, heads = 4;
  Rng data_rng(109);
  const Matrix x = Matrix::randn(batch * seq, d_model, data_rng);
  const Matrix dy = Matrix::randn(batch * seq, d_model, data_rng);
  Matrix ref_y, ref_dx;
  std::vector<Matrix> ref_grads;
  for (int t : kThreadCounts) {
    const ExecContext ctx(t, t);
    Rng rng(11);
    MultiHeadSelfAttention attn(d_model, heads, rng, "attn");
    const Matrix y = attn.forward(x, batch, seq, true, ctx);
    const Matrix dx = attn.backward(dy, ctx);
    if (t == 1) {
      ref_y = y;
      ref_dx = dx;
      for (Param* p : attn.params()) ref_grads.push_back(p->g);
    } else {
      expect_bitwise(y, ref_y, "Attention forward", t);
      expect_bitwise(dx, ref_dx, "Attention dx", t);
      const auto params = attn.params();
      for (std::size_t i = 0; i < params.size(); ++i)
        expect_bitwise(params[i]->g, ref_grads[i], "Attention param grad", t);
    }
  }
}

TEST(NnThreads, AttentionEqualsSliceCopyReferenceOnEveryTier) {
  // Heads are multiplied in place through GEMM views; the slice-copy oracle
  // copies each head out and adds it back. Every tier × thread count must
  // give the oracle's bits (at that tier): the output, dx and all eight
  // projection gradients. seq 33 leaves a partial last B panel on every
  // tier; d_head 5 and 16 straddle and fill the 8-wide panels.
  struct Shape {
    std::size_t batch, seq, d_model, heads;
  };
  for (const Shape& s : {Shape{2, 7, 15, 3}, Shape{3, 33, 64, 4}}) {
    Rng data_rng(157);
    const Matrix x = Matrix::randn(s.batch * s.seq, s.d_model, data_rng);
    const Matrix dy = Matrix::randn(s.batch * s.seq, s.d_model, data_rng);
    for (SimdLevel level : host_simd_levels()) {
      ScopedSimdLevel guard(level);
      for (int t : {1, 2, 3}) {
        SCOPED_TRACE(std::string(simd_level_name(level)) +
                     " d_model=" + std::to_string(s.d_model));
        Rng rng(17);
        MultiHeadSelfAttention attn(s.d_model, s.heads, rng, "attn");
        const AttentionReference ref =
            attention_slice_reference(attn, s.heads, x, dy, s.batch, s.seq);
        const ExecContext ctx(t, t);
        expect_bitwise(attn.forward(x, s.batch, s.seq, true, ctx), ref.y,
                       "Attention forward", t);
        expect_bitwise(attn.backward(dy, ctx), ref.dx, "Attention dx", t);
        const auto params = attn.params();
        ASSERT_EQ(params.size(), 8u);
        for (std::size_t i = 0; i < params.size(); ++i)
          expect_bitwise(params[i]->g, ref.param_grads[i],
                         params[i]->name.c_str(), t);
      }
    }
  }
}

TEST(NnThreads, EmbeddingScatterBitwise) {
  const std::size_t vocab = 23, seq = 7, batch = 4, d = 12;
  Rng data_rng(113);
  std::vector<int> ids, segs;
  for (std::size_t i = 0; i < batch * seq; ++i) {
    // Repeated ids on purpose: the scatter must keep their serial
    // accumulation order within each table row.
    ids.push_back(static_cast<int>(data_rng.uniform_int(5)));
    segs.push_back(static_cast<int>(data_rng.uniform_int(2)));
  }
  const Matrix dy = Matrix::randn(batch * seq, d, data_rng);
  Matrix ref_out;
  std::vector<Matrix> ref_grads;
  for (int t : kThreadCounts) {
    const ExecContext ctx(t, t);
    Rng rng(13);
    Embedding emb(vocab, seq, d, rng, "emb");
    const Matrix out = emb.forward(ids, segs, batch, seq, true, ctx);
    emb.backward(dy, ctx);
    emb.backward(dy, ctx);  // accumulate twice: += order must also hold
    if (t == 1) {
      ref_out = out;
      for (Param* p : emb.params()) ref_grads.push_back(p->g);
    } else {
      expect_bitwise(out, ref_out, "Embedding forward", t);
      const auto params = emb.params();
      for (std::size_t i = 0; i < params.size(); ++i)
        expect_bitwise(params[i]->g, ref_grads[i], "Embedding table grad", t);
    }
  }
}

TEST(NnThreads, LossBitwise) {
  Rng rng(137);
  const Matrix logits = Matrix::randn(15, 11, rng, 2.0);
  std::vector<int> labels;
  for (std::size_t r = 0; r < 15; ++r)
    labels.push_back(r % 3 == 0 ? -1 : static_cast<int>(rng.uniform_int(11)));
  const auto ref = softmax_cross_entropy(logits, labels, ExecContext());
  for (int t : {2, 4}) {
    const ExecContext ctx(t, t);
    const auto res = softmax_cross_entropy(logits, labels, ctx);
    EXPECT_EQ(res.loss, ref.loss) << "loss differs with threads=" << t;
    EXPECT_EQ(res.counted, ref.counted);
    expect_bitwise(res.dlogits, ref.dlogits, "loss dlogits", t);
  }
}

BertBatch synthetic_batch(const BertConfig& cfg, std::uint64_t seed) {
  Rng rng(seed);
  BertBatch b;
  b.batch = 3;
  b.seq = cfg.seq_len;
  for (std::size_t i = 0; i < b.batch * b.seq; ++i) {
    b.ids.push_back(static_cast<int>(rng.uniform_int(cfg.vocab)));
    b.segments.push_back(static_cast<int>(rng.uniform_int(2)));
    b.mlm_labels.push_back(
        rng.bernoulli(0.25) ? static_cast<int>(rng.uniform_int(cfg.vocab))
                            : -1);
  }
  for (std::size_t i = 0; i < b.batch; ++i)
    b.nsp_labels.push_back(static_cast<int>(rng.uniform_int(2)));
  return b;
}

TEST(NnThreads, BertTrainStepBitwiseEndToEnd) {
  BertConfig cfg;
  cfg.vocab = 20;
  cfg.d_model = 16;
  cfg.d_ff = 32;
  cfg.n_heads = 2;
  cfg.n_layers = 2;
  cfg.seq_len = 8;
  const auto batch = synthetic_batch(cfg, 139);
  double ref_loss = 0.0;
  std::vector<Matrix> ref_grads;
  for (int t : kThreadCounts) {
    const ExecContext ctx(t, t);
    Rng rng(17);
    BertModel model(cfg, rng);
    const auto losses = model.train_step_backward(batch, ctx);
    if (t == 1) {
      ref_loss = losses.total;
      for (Param* p : model.params()) ref_grads.push_back(p->g);
    } else {
      EXPECT_EQ(losses.total, ref_loss) << "loss differs with threads=" << t;
      const auto params = model.params();
      ASSERT_EQ(params.size(), ref_grads.size());
      for (std::size_t i = 0; i < params.size(); ++i)
        expect_bitwise(params[i]->g, ref_grads[i], params[i]->name.c_str(),
                       t);
    }
  }
}

TEST(NnThreads, TrainerRunBitwiseAcrossNnThreads) {
  // A short full training run (model + batcher + optimizer) through
  // TrainerConfig::exec: the loss trajectory must match serial exactly.
  auto run = [](int threads) {
    BertConfig cfg;
    cfg.vocab = 30;
    cfg.d_model = 16;
    cfg.d_ff = 32;
    cfg.n_heads = 2;
    cfg.n_layers = 1;
    cfg.seq_len = 10;
    Rng rng(3);
    BertModel model(cfg, rng);
    CorpusConfig cc;
    cc.vocab = cfg.vocab;
    SyntheticCorpus corpus(cc);
    MlmBatcherConfig bc;
    bc.seq_len = cfg.seq_len;
    MlmBatcher batcher(corpus, bc);
    TrainerConfig tc;
    tc.batch_size = 6;
    tc.total_steps = 8;
    tc.schedule = PolyWarmupSchedule(1e-2, 2, 8);
    tc.exec = ExecContext(threads, threads);
    Trainer trainer(model, batcher, std::make_unique<Lamb>(), tc);
    return trainer.run().loss;
  };
  const auto serial = run(1);
  for (int t : {2, 4}) {
    const auto par = run(t);
    ASSERT_EQ(par.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
      EXPECT_EQ(par[i], serial[i]) << "step " << i << " threads=" << t;
  }
}

TEST(NnThreads, GradCheckUnderMultiThreadedContext) {
  // The analytic gradients of a threaded backward still match finite
  // differences evaluated under the same multi-threaded context.
  const ExecContext ctx(4, 2);
  Rng rng(41);
  TransformerBlock block(8, 16, 2, rng, "blk");
  const std::size_t batch = 2, seq = 3;
  const Matrix x = Matrix::randn(batch * seq, 8, rng);
  const Matrix wsum = Matrix::randn(batch * seq, 8, rng);
  auto loss = [&](const ExecContext& c) {
    const Matrix y = block.forward(x, batch, seq, false, c);
    double s = 0.0;
    for (std::size_t r = 0; r < y.rows(); ++r)
      for (std::size_t cc = 0; cc < y.cols(); ++cc) s += y(r, cc) * wsum(r, cc);
    return s;
  };
  zero_grads(block.params());
  block.forward(x, batch, seq, true, ctx);
  block.backward(wsum, ctx);
  EXPECT_LT(max_grad_check_error(block.params(), loss, ctx, 6), 1e-4);
}

}  // namespace
}  // namespace pf
