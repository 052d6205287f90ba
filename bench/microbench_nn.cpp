// nn-layer microbenchmarks (google-benchmark): the forward/backward loops
// that define the pipeline stages whose bubbles PipeFisher fills. Every
// benchmark carries a `threads` dimension driving an ExecContext — the
// results are bitwise identical across thread counts (NnThreads tests), so
// these rows measure pure scheduling/throughput, never numerics.
//
// Like BENCH_kernels.json, the committed BENCH_nn.json may come from a
// cgroup-limited container (see its cpu_budget_note context entry): compare
// timings only against runs with the same context.num_cpus.
#include <benchmark/benchmark.h>

#include "src/common/exec_context.h"
#include "src/common/rng.h"
#include "src/nn/activations.h"
#include "src/nn/attention.h"
#include "src/nn/bert.h"
#include "src/nn/embedding.h"
#include "src/nn/layer_norm.h"

namespace {

using pf::ExecContext;
using pf::Matrix;

// Attention rows: seq {32, 64} at batch 4 with 8 heads of 8, plus the
// train-kfac shape (batch 8, seq 32, 4 heads of 16); d_model 64 throughout.
void attention_rows(benchmark::internal::Benchmark* b) {
  b->ArgNames({"seq", "threads", "batch", "heads"});
  for (int seq : {32, 64})
    for (int threads : {1, 2, 4}) b->Args({seq, threads, 4, 8});
  for (int threads : {1, 2, 4}) b->Args({32, threads, 8, 4});
}

void BM_AttentionForward(benchmark::State& state) {
  const auto seq = static_cast<std::size_t>(state.range(0));
  const ExecContext ctx(static_cast<int>(state.range(1)), 1);
  const auto batch = static_cast<std::size_t>(state.range(2));
  const auto heads = static_cast<std::size_t>(state.range(3));
  const std::size_t d_model = 64;
  pf::Rng rng(11);
  pf::MultiHeadSelfAttention attn(d_model, heads, rng, "attn");
  const Matrix x = Matrix::randn(batch * seq, d_model, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(attn.forward(x, batch, seq, false, ctx));
  }
  state.SetItemsProcessed(state.iterations() * batch * heads * seq * seq);
}
BENCHMARK(BM_AttentionForward)->Apply(attention_rows);

void BM_AttentionBackward(benchmark::State& state) {
  const auto seq = static_cast<std::size_t>(state.range(0));
  const ExecContext ctx(static_cast<int>(state.range(1)), 1);
  const auto batch = static_cast<std::size_t>(state.range(2));
  const auto heads = static_cast<std::size_t>(state.range(3));
  const std::size_t d_model = 64;
  pf::Rng rng(13);
  pf::MultiHeadSelfAttention attn(d_model, heads, rng, "attn");
  const Matrix x = Matrix::randn(batch * seq, d_model, rng);
  const Matrix dy = Matrix::randn(batch * seq, d_model, rng);
  attn.forward(x, batch, seq, true, ctx);
  for (auto _ : state) {
    benchmark::DoNotOptimize(attn.backward(dy, ctx));
  }
  state.SetItemsProcessed(state.iterations() * batch * heads * seq * seq);
}
BENCHMARK(BM_AttentionBackward)->Apply(attention_rows);

void BM_GeluForward(benchmark::State& state) {
  // The Gelu layer's training forward (value plus cached derivative) on one
  // train-kfac micro-batch: 8 sequences × 32 tokens by d_ff = 128.
  const ExecContext ctx(static_cast<int>(state.range(0)), 1);
  const std::size_t rows = 256, d_ff = 128;
  pf::Rng rng(31);
  const Matrix x = Matrix::randn(rows, d_ff, rng);
  pf::Gelu gelu;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gelu.forward(x, true, ctx));
  }
  state.SetItemsProcessed(state.iterations() * rows * d_ff);
}
BENCHMARK(BM_GeluForward)->Arg(1)->Arg(2)->Arg(4)->ArgNames({"threads"});

void BM_LayerNormForward(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const ExecContext ctx(static_cast<int>(state.range(1)), 1);
  const std::size_t dim = 256;
  pf::LayerNorm ln(dim, "ln");
  pf::Rng rng(17);
  const Matrix x = Matrix::randn(rows, dim, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ln.forward(x, false, ctx));
  }
  state.SetItemsProcessed(state.iterations() * rows * dim);
}
BENCHMARK(BM_LayerNormForward)
    ->ArgsProduct({{512, 2048}, {1, 2, 4}})
    ->ArgNames({"rows", "threads"});

void BM_LayerNormBackward(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  const ExecContext ctx(static_cast<int>(state.range(1)), 1);
  const std::size_t dim = 256;
  pf::LayerNorm ln(dim, "ln");
  pf::Rng rng(19);
  const Matrix x = Matrix::randn(rows, dim, rng);
  const Matrix dy = Matrix::randn(rows, dim, rng);
  ln.forward(x, true, ctx);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ln.backward(dy, ctx));
  }
  state.SetItemsProcessed(state.iterations() * rows * dim);
}
BENCHMARK(BM_LayerNormBackward)
    ->ArgsProduct({{512, 2048}, {1, 2, 4}})
    ->ArgNames({"rows", "threads"});

void BM_EmbeddingScatter(benchmark::State& state) {
  // The backward scatter-add — the owner-computes sharded path.
  const auto d_model = static_cast<std::size_t>(state.range(0));
  const ExecContext ctx(static_cast<int>(state.range(1)), 1);
  const std::size_t vocab = 512, seq = 128, batch = 8;
  pf::Rng rng(23);
  pf::Embedding emb(vocab, seq, d_model, rng, "emb");
  std::vector<int> ids(batch * seq), segs(batch * seq);
  for (std::size_t i = 0; i < ids.size(); ++i) {
    ids[i] = static_cast<int>(rng.uniform_int(vocab));
    segs[i] = static_cast<int>(rng.uniform_int(2));
  }
  emb.forward(ids, segs, batch, seq, true, ctx);
  const Matrix dy = Matrix::randn(batch * seq, d_model, rng);
  for (auto _ : state) {
    emb.backward(dy, ctx);
    benchmark::DoNotOptimize(emb.params()[0]->g);
  }
  state.SetItemsProcessed(state.iterations() * batch * seq * d_model);
}
BENCHMARK(BM_EmbeddingScatter)
    ->ArgsProduct({{64, 128}, {1, 2, 4}})
    ->ArgNames({"d_model", "threads"});

void BM_BertTrainStep(benchmark::State& state) {
  // End-to-end forward+loss+backward of the miniature BERT under the
  // context — the compute that defines the pipeline bubbles.
  const ExecContext ctx(static_cast<int>(state.range(0)),
                        static_cast<int>(state.range(0)));
  pf::BertConfig cfg;
  cfg.vocab = 64;
  cfg.d_model = 64;
  cfg.d_ff = 128;
  cfg.n_heads = 4;
  cfg.n_layers = 2;
  cfg.seq_len = 32;
  pf::Rng rng(29);
  pf::BertModel model(cfg, rng);
  pf::BertBatch b;
  b.batch = 8;
  b.seq = cfg.seq_len;
  for (std::size_t i = 0; i < b.batch * b.seq; ++i) {
    b.ids.push_back(static_cast<int>(rng.uniform_int(cfg.vocab)));
    b.segments.push_back(static_cast<int>(rng.uniform_int(2)));
    b.mlm_labels.push_back(
        rng.bernoulli(0.15) ? static_cast<int>(rng.uniform_int(cfg.vocab))
                            : -1);
  }
  for (std::size_t i = 0; i < b.batch; ++i)
    b.nsp_labels.push_back(static_cast<int>(rng.uniform_int(2)));
  const auto params = model.params();
  for (auto _ : state) {
    pf::zero_grads(params);  // keep the accumulators bounded across iters
    benchmark::DoNotOptimize(model.train_step_backward(b, ctx));
  }
}
BENCHMARK(BM_BertTrainStep)->Arg(1)->Arg(2)->Arg(4)->ArgNames({"threads"});

}  // namespace

BENCHMARK_MAIN();
