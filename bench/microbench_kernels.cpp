// Kernel microbenchmarks (google-benchmark): the measurement hooks that
// would calibrate the cost model on real hardware. On the GPUs of the paper
// these are the Nsight-profiled kernels; here they time our CPU kernels for
// GEMM (forward/backward), the symmetric curvature product syrk_tn_acc
// (lower-triangle tiles only, upper mirrored), Cholesky + the batched
// 32-column cholesky_inverse (inversion work), the two-sided precondition
// product and the exp kernel under GELU and softmax (exp_span).
//
// GEMM-family benchmarks carry two extra dimensions, BM_GemmShapes and
// BM_ExpSpan the second:
//   threads  1 = serial, >1 = row-block ThreadPool path (bitwise identical
//            within one SIMD level).
//   simd     0 = the portable scalar microkernel (what PF_SIMD_LEVEL=scalar
//            or PF_FORCE_SCALAR pins), 1 = the AVX2+FMA microkernel,
//            2 = the AVX-512F microkernel. Rows above the host's/build's
//            detected tier are skipped (set_simd_level clamps).
//
// A family that reports items_per_second counts a fixed, documented amount
// of work per call (see each family), so a kernel that reaches the same
// result with fewer operations shows a higher rate. CI compares the rates
// of the GEMM families (BM_GemmShapes at the workloads' own shapes),
// BM_InversionWork and BM_ExpSpan against the committed BENCH_kernels.json
// via tools/check_bench_regression.py — but only when context.num_cpus
// matches the baseline's, because the committed file may come from a
// cgroup-limited dev container (see the cpu_budget_note context entry
// written by the bench_all target).
#include <benchmark/benchmark.h>

#include <vector>

#include "src/common/cpu_features.h"
#include "src/common/exec_context.h"
#include "src/common/rng.h"
#include "src/linalg/cholesky.h"
#include "src/linalg/exp_span.h"
#include "src/linalg/gemm.h"

namespace {

using pf::Matrix;
using pf::SimdLevel;

// Applies the benchmark's requested SIMD level; returns false (after marking
// the benchmark skipped) when the host/build can't run it.
bool apply_simd_arg(benchmark::State& state, int64_t simd) {
  const SimdLevel want = simd >= 2   ? SimdLevel::kAvx512
                         : simd == 1 ? SimdLevel::kAvx2
                                     : SimdLevel::kScalar;
  if (pf::set_simd_level(want) != want) {
    state.SkipWithError("requested SIMD tier not available on this "
                        "host/build (set_simd_level clamped)");
    return false;
  }
  return true;
}

void BM_GemmForward(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<int>(state.range(1));
  const SimdLevel entry_level = pf::active_simd_level();
  if (!apply_simd_arg(state, state.range(2))) return;
  pf::Rng rng(1);
  const Matrix x = Matrix::randn(n, n, rng);
  const Matrix w = Matrix::randn(n, n, rng);
  const pf::ExecContext ctx(1, threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pf::matmul(x, w, ctx));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  pf::set_simd_level(entry_level);
}
BENCHMARK(BM_GemmForward)
    ->ArgsProduct({{32, 64, 128}, {1, 2, 4}, {0, 1, 2}})
    ->ArgNames({"n", "threads", "simd"});

void BM_GemmBackwardNt(benchmark::State& state) {
  // dX = dY · Wᵀ — the backward-pass product.
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<int>(state.range(1));
  const SimdLevel entry_level = pf::active_simd_level();
  if (!apply_simd_arg(state, state.range(2))) return;
  pf::Rng rng(5);
  const Matrix dy = Matrix::randn(n, n, rng);
  const Matrix w = Matrix::randn(n, n, rng);
  const pf::ExecContext ctx(1, threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pf::matmul_nt(dy, w, ctx));
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  pf::set_simd_level(entry_level);
}
BENCHMARK(BM_GemmBackwardNt)
    ->ArgsProduct({{64, 128}, {1, 2, 4}, {0, 1, 2}})
    ->ArgNames({"n", "threads", "simd"});

// The products the training workloads run, at their shapes: a micro batch
// of 256 tokens (8 sequences of 32), d_model 64, d_ff 128 and 4 heads of 16.
// Each row names its role and its m×k×n: output m×n, reduction depth k.
// Threads 1; items are 2·m·k·n per call. The accumulating form keeps the
// output's allocation out of the timing.
enum class GemmOp { kNn, kNt, kTn };

void BM_GemmShapes(benchmark::State& state, GemmOp op, std::size_t m,
                   std::size_t k, std::size_t n) {
  const SimdLevel entry_level = pf::active_simd_level();
  if (!apply_simd_arg(state, state.range(0))) return;
  pf::Rng rng(7);
  const Matrix a = op == GemmOp::kTn ? Matrix::randn(k, m, rng)
                                     : Matrix::randn(m, k, rng);
  const Matrix b = op == GemmOp::kNt ? Matrix::randn(n, k, rng)
                                     : Matrix::randn(k, n, rng);
  Matrix c(m, n, 0.0);
  for (auto _ : state) {
    switch (op) {
      case GemmOp::kNn: pf::matmul_acc(a, b, c); break;
      case GemmOp::kNt: pf::matmul_nt_acc(a, b, c); break;
      case GemmOp::kTn: pf::matmul_tn_acc(a, b, c); break;
    }
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
  pf::set_simd_level(entry_level);
}
// The Linear forward: x·W for the attention projections and the FFN's two.
BENCHMARK_CAPTURE(BM_GemmShapes, linear_fwd_256x64x64, GemmOp::kNn, 256, 64,
                  64)
    ->DenseRange(0, 2)->ArgName("simd");
BENCHMARK_CAPTURE(BM_GemmShapes, linear_fwd_256x64x128, GemmOp::kNn, 256, 64,
                  128)
    ->DenseRange(0, 2)->ArgName("simd");
BENCHMARK_CAPTURE(BM_GemmShapes, linear_fwd_256x128x64, GemmOp::kNn, 256,
                  128, 64)
    ->DenseRange(0, 2)->ArgName("simd");
// The Linear input gradient: dy·Wᵀ.
BENCHMARK_CAPTURE(BM_GemmShapes, linear_dx_256x64x64, GemmOp::kNt, 256, 64,
                  64)
    ->DenseRange(0, 2)->ArgName("simd");
// The W pass: xᵀ·dy over the micro batch's tokens.
BENCHMARK_CAPTURE(BM_GemmShapes, linear_dw_64x256x64, GemmOp::kTn, 64, 256,
                  64)
    ->DenseRange(0, 2)->ArgName("simd");
// Attention per (sequence, head): the scores q·kᵀ and the context p·v.
BENCHMARK_CAPTURE(BM_GemmShapes, head_scores_32x16x32, GemmOp::kNt, 32, 16,
                  32)
    ->DenseRange(0, 2)->ArgName("simd");
BENCHMARK_CAPTURE(BM_GemmShapes, head_context_32x32x16, GemmOp::kNn, 32, 32,
                  16)
    ->DenseRange(0, 2)->ArgName("simd");

void BM_CurvatureFactor(benchmark::State& state) {
  // A_l = XᵀX/N for N tokens of dimension d: syrk_tn_acc, the kernel the
  // K-FAC engine runs. Items stay tokens·d² per call (the count this family
  // has always reported; the full product's multiply-adds), so the rate
  // compares across kernel changes.
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<int>(state.range(1));
  const SimdLevel entry_level = pf::active_simd_level();
  if (!apply_simd_arg(state, state.range(2))) return;
  const std::size_t tokens = 256;
  pf::Rng rng(2);
  const Matrix x = Matrix::randn(tokens, d, rng);
  const pf::ExecContext ctx(1, threads);
  for (auto _ : state) {
    Matrix a(d, d, 0.0);
    pf::syrk_tn_acc(x, a, 1.0 / static_cast<double>(tokens), ctx);
    benchmark::DoNotOptimize(a);
  }
  state.SetItemsProcessed(state.iterations() * tokens * d * d);
  pf::set_simd_level(entry_level);
}
BENCHMARK(BM_CurvatureFactor)
    ->ArgsProduct({{32, 64, 128}, {1, 2, 4}, {0, 1, 2}})
    ->ArgNames({"d", "threads", "simd"});

void BM_InversionWork(benchmark::State& state) {
  // Cholesky + cholesky_inverse of a damped SPD factor: the blocked
  // right-looking factorization, then the inverse solving 32 unit columns
  // per pass. Items are the textbook flop count d³ per call — d³/3 for the
  // factorization plus 2d³/3 for the inverse from the factor (LAPACK
  // potrf + potri) — not the operations this code happens to execute.
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<int>(state.range(1));
  pf::Rng rng(3);
  const Matrix u = Matrix::randn(d, d, rng);
  Matrix spd = pf::matmul_tn(u, u);
  spd *= 1.0 / static_cast<double>(d);
  pf::add_diagonal(spd, 1.0);
  const pf::ExecContext ctx(1, threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pf::cholesky_inverse(pf::cholesky(spd, ctx), ctx));
  }
  state.SetItemsProcessed(state.iterations() * d * d * d);
}
BENCHMARK(BM_InversionWork)
    ->ArgsProduct({{32, 64, 128}, {1, 2, 4}})
    ->ArgNames({"d", "threads"});

void BM_PreconditionWork(benchmark::State& state) {
  // B⁻¹ · G · A⁻¹ for a d×4d layer (the FFN shape).
  const auto d = static_cast<std::size_t>(state.range(0));
  const auto threads = static_cast<int>(state.range(1));
  const SimdLevel entry_level = pf::active_simd_level();
  if (!apply_simd_arg(state, state.range(2))) return;
  pf::Rng rng(4);
  const Matrix a_inv = Matrix::randn(d, d, rng);
  const Matrix b_inv = Matrix::randn(4 * d, 4 * d, rng);
  const Matrix g = Matrix::randn(d, 4 * d, rng);
  const pf::ExecContext ctx(1, threads);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pf::matmul(pf::matmul(a_inv, g, ctx), b_inv, ctx));
  }
  pf::set_simd_level(entry_level);
}
BENCHMARK(BM_PreconditionWork)
    ->ArgsProduct({{32, 64}, {1, 2, 4}, {0, 1, 2}})
    ->ArgNames({"d", "threads", "simd"});

void BM_ExpSpan(benchmark::State& state) {
  // exp_span over n elements: the exponential under GELU (rows of d_ff) and
  // softmax (rows of seq). Items are elements per call. Every tier returns
  // the same bits, so the simd rows differ in speed only. GELU and softmax
  // call it in place; out of place keeps the input fixed across iterations.
  const auto n = static_cast<std::size_t>(state.range(0));
  const SimdLevel entry_level = pf::active_simd_level();
  if (!apply_simd_arg(state, state.range(1))) return;
  pf::Rng rng(6);
  std::vector<double> x(n), y(n);
  for (double& v : x) v = 3.0 * rng.normal();
  for (auto _ : state) {
    pf::exp_span(x.data(), y.data(), n);
    benchmark::DoNotOptimize(y.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * n);
  pf::set_simd_level(entry_level);
}
BENCHMARK(BM_ExpSpan)
    ->ArgsProduct({{32, 128, 4096}, {0, 1, 2}})
    ->ArgNames({"n", "simd"});

}  // namespace

BENCHMARK_MAIN();
