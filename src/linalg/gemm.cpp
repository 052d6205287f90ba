#include "src/linalg/gemm.h"

#include <algorithm>
#include <vector>

#include "src/common/cpu_features.h"
#include "src/linalg/gemm_kernel.h"

// Read-prefetch with high temporal locality; a no-op where unsupported.
// Prefetching never touches architectural state, so it cannot perturb the
// bitwise determinism contract.
#if defined(__GNUC__) || defined(__clang__)
#define PF_PREFETCH_R(addr) __builtin_prefetch((addr), 0, 3)
#else
#define PF_PREFETCH_R(addr) ((void)0)
#endif

namespace pf {

namespace detail {

void micro_kernel_scalar(std::size_t kc, double alpha, const double* ap,
                         std::size_t a_stride, const double* bp, double* c,
                         std::size_t ldc, std::size_t mr, std::size_t nr) {
  // Two output rows per pass: their 2×kNR accumulators fit the baseline
  // SSE2 register file (a full 6×8 tile would spill) while giving the
  // floating-point adders enough independent chains to hide their latency.
  // Per element the k loop ascends and alpha is applied once at the end —
  // the same structure as the AVX2 kernel, in plain mul+add arithmetic, so
  // thread partitioning is bitwise neutral here too (an element's chain does
  // not depend on whether its row ran paired or as the odd tail); the B
  // sliver is re-streamed per row pair from L1.
  std::size_t i = 0;
  for (; i + 1 < mr; i += 2) {
    double acc0[kNR] = {}, acc1[kNR] = {};
    for (std::size_t k = 0; k < kc; ++k) {
      const double a0 = ap[k * a_stride + i];
      const double a1 = ap[k * a_stride + i + 1];
      const double* brow = bp + k * kNR;
      for (std::size_t j = 0; j < kNR; ++j) {
        acc0[j] += a0 * brow[j];
        acc1[j] += a1 * brow[j];
      }
    }
    for (std::size_t j = 0; j < nr; ++j) {
      c[i * ldc + j] += alpha * acc0[j];
      c[(i + 1) * ldc + j] += alpha * acc1[j];
    }
  }
  for (; i < mr; ++i) {
    double acc[kNR] = {};
    for (std::size_t k = 0; k < kc; ++k) {
      const double a = ap[k * a_stride + i];
      const double* brow = bp + k * kNR;
      for (std::size_t j = 0; j < kNR; ++j) acc[j] += a * brow[j];
    }
    for (std::size_t j = 0; j < nr; ++j) c[i * ldc + j] += alpha * acc[j];
  }
}

KernelSpec active_kernel_spec() {
  const SimdLevel level = active_simd_level();
#if defined(PF_HAVE_AVX512)
  if (level == SimdLevel::kAvx512)
    return KernelSpec{micro_kernel_avx512, kMR512, kNR512};
#endif
#if defined(PF_HAVE_AVX2)
  if (level == SimdLevel::kAvx2) return KernelSpec{micro_kernel_avx2, kMR, kNR};
#endif
  (void)level;
  return KernelSpec{micro_kernel_scalar, kMR, kNR};
}

}  // namespace detail

namespace {

using detail::kKC;
using detail::kMC;

// When set, Op(A) is already laid out k-major in memory — ap for the tile at
// output rows [ti, ·) and k block k0 is base + k0*stride + ti, fed to the
// microkernel with a_stride = stride instead of a packed copy. matmul_tn is
// the case: Op(A)(i, k) = a(k, i) sits at a.data()[k*lda + i], so its
// "column-wise walk" needs no A pack at all. Addressing never enters the
// arithmetic, so this is bitwise identical to the packed path.
struct DirectA {
  const double* base = nullptr;
  std::size_t stride = 0;
};

// Packs all of B (reduction dim K × output cols N, element getter b(k, j))
// into NR-wide, zero-padded column slivers grouped by kKC block:
//   packed[block t][panel p][k*NR + j]
// NR is the active kernel's full tile width (8 for scalar/AVX2, 16 for
// AVX-512). Block t occupies kb_t * n_panels * NR doubles starting at
// t * kKC * n_panels * NR (every block before the last is full, so the
// prefix is exact). Packing happens once, before the row-parallel phase; the
// workers only read it.
template <typename BGet>
std::vector<double> pack_b(std::size_t K, std::size_t N, const BGet& b,
                           std::size_t NR) {
  const std::size_t n_panels = (N + NR - 1) / NR;
  std::vector<double> packed(K * n_panels * NR);
  for (std::size_t k0 = 0; k0 < K; k0 += kKC) {
    const std::size_t kb = std::min(kKC, K - k0);
    double* block = packed.data() + k0 * n_panels * NR;
    for (std::size_t p = 0; p < n_panels; ++p) {
      const std::size_t j0 = p * NR;
      const std::size_t jw = std::min(NR, N - j0);
      double* dst = block + p * kb * NR;
      for (std::size_t k = 0; k < kb; ++k)
        for (std::size_t jj = 0; jj < NR; ++jj)
          dst[k * NR + jj] = jj < jw ? b(k0 + k, j0 + jj) : 0.0;
    }
  }
  return packed;
}

// Computes C rows [r0, r1) += alpha * Op(A)·Op(B) from the pre-packed B.
// Loop order: row block → k block → column sliver → row tile, so each output
// element sees ascending k regardless of where [r0, r1) starts — the thread
// partition cannot change results within one SIMD level. lower_only skips
// every register tile lying wholly above the diagonal (column > row for all
// its elements); the tiles it runs are computed exactly as without it.
template <typename AGet>
void gemm_rows_packed(std::size_t r0, std::size_t r1, std::size_t N,
                      std::size_t K, double alpha, const AGet& a,
                      const DirectA& da, const double* packed_b, Matrix& cmat,
                      const detail::KernelSpec& spec, bool lower_only) {
  const std::size_t MR = spec.mr, NR = spec.nr;
  const std::size_t n_panels = (N + NR - 1) / NR;
  const std::size_t ldc = cmat.cols();
  // Per-thread scratch for packed A tiles; reused across calls. This
  // function never enters the pool (no parallel_for, no waits), so a thread
  // cannot start a second call inside the first: calls on one thread are
  // sequential and repack before every use.
  thread_local std::vector<double> apack;
  if (da.base == nullptr) apack.resize(kMC * kKC);
  for (std::size_t i0 = r0; i0 < r1; i0 += kMC) {
    const std::size_t i1 = std::min(r1, i0 + kMC);
    for (std::size_t k0 = 0; k0 < K; k0 += kKC) {
      const std::size_t kb = std::min(kKC, K - k0);
      if (da.base == nullptr) {
        // Pack A rows [i0, i1) × k block into MR tiles, k-major, stride mr.
        for (std::size_t ti = i0; ti < i1; ti += MR) {
          const std::size_t mr = std::min(MR, i1 - ti);
          double* dst = apack.data() + (ti - i0) * kb;
          for (std::size_t k = 0; k < kb; ++k)
            for (std::size_t ii = 0; ii < mr; ++ii)
              dst[k * mr + ii] = a(ti + ii, k0 + k);
        }
      }
      const double* bblock = packed_b + k0 * n_panels * NR;
      for (std::size_t p = 0; p < n_panels; ++p) {
        const std::size_t j0 = p * NR;
        if (lower_only && j0 >= i1) break;  // later slivers lie further right
        const std::size_t jw = std::min(NR, N - j0);
        const double* bp = bblock + p * kb * NR;
        if (p + 1 < n_panels) {
          // Touch the head of the next B sliver while this one computes so
          // the hardware streamer is already running when we get there.
          const double* nb = bblock + (p + 1) * kb * NR;
          PF_PREFETCH_R(nb);
          PF_PREFETCH_R(nb + 8);
        }
        for (std::size_t ti = i0; ti < i1; ti += MR) {
          const std::size_t mr = std::min(MR, i1 - ti);
          if (lower_only && ti + mr <= j0) continue;
          if (ti + MR < i1) PF_PREFETCH_R(cmat.row(ti + MR) + j0);
          const double* ap = da.base != nullptr
                                 ? da.base + k0 * da.stride + ti
                                 : apack.data() + (ti - i0) * kb;
          const std::size_t a_stride = da.base != nullptr ? da.stride : mr;
          spec.fn(kb, alpha, ap, a_stride, bp, cmat.row(ti) + j0, ldc, mr,
                  jw);
        }
      }
    }
  }
}

// Shared driver: C(M×N) += alpha * Op(A)·Op(B) with element getters a(i, k),
// b(k, j) absorbing the nn/tn/nt transposes (da short-circuits the A pack
// when Op(A) is k-major in memory). B is packed once up front; output rows
// are then split into ctx.gemm_threads() contiguous blocks on ctx.pool().
// lower_only (square C) runs only the tiles touching the lower triangle, in
// the same row chunks.
template <typename AGet, typename BGet>
void gemm_driver(std::size_t M, std::size_t N, std::size_t K, double alpha,
                 const AGet& a, const DirectA& da, const BGet& b, Matrix& c,
                 const ExecContext& ctx, bool lower_only = false) {
  if (M == 0 || N == 0 || K == 0) return;  // += alpha·0: nothing to do
  const detail::KernelSpec spec = detail::active_kernel_spec();
  const std::vector<double> packed_b = pack_b(K, N, b, spec.nr);
  const auto n_threads = static_cast<std::size_t>(ctx.gemm_threads());
  if (n_threads <= 1 || M <= 1) {
    // Serial fast path: skip the std::function wrap — small products in the
    // nn forward/backward loops call in here at high frequency.
    gemm_rows_packed(0, M, N, K, alpha, a, da, packed_b.data(), c, spec,
                     lower_only);
    return;
  }
  ctx.pool().parallel_for(M, n_threads, [&](std::size_t r0, std::size_t r1) {
    gemm_rows_packed(r0, r1, N, K, alpha, a, da, packed_b.data(), c, spec,
                     lower_only);
  });
}

// c(K×N) += alpha · aᵀb for a (M×K), b (M×N); the reduction dim is M.
void tn_acc(const Matrix& a, const Matrix& b, Matrix& c, double alpha,
            const ExecContext& ctx, bool lower_only) {
  const std::size_t M = a.rows(), K = a.cols(), N = b.cols();
  PF_CHECK(b.rows() == M) << "matmul_tn shape mismatch";
  PF_CHECK(c.rows() == K && c.cols() == N);
  // aᵀ is k-major in a's row-major storage: Op(A)(i, k) = a.data()[k*K + i]
  // — the copy-free DirectA case.
  gemm_driver(
      K, N, M, alpha,
      [&](std::size_t i, std::size_t k) { return a.row(k)[i]; },
      DirectA{a.data(), a.cols()},
      [&](std::size_t k, std::size_t j) { return b.row(k)[j]; }, c, ctx,
      lower_only);
}

}  // namespace

void matmul_acc(const Matrix& a, const Matrix& b, Matrix& c, double alpha,
                const ExecContext& ctx) {
  const std::size_t M = a.rows(), K = a.cols(), N = b.cols();
  PF_CHECK(b.rows() == K) << "matmul shape: " << M << "x" << K << " * "
                          << b.rows() << "x" << N;
  PF_CHECK(c.rows() == M && c.cols() == N);
  gemm_driver(
      M, N, K, alpha,
      [&](std::size_t i, std::size_t k) { return a.row(i)[k]; }, DirectA{},
      [&](std::size_t k, std::size_t j) { return b.row(k)[j]; }, c, ctx);
}

Matrix matmul(const Matrix& a, const Matrix& b, const ExecContext& ctx) {
  Matrix c(a.rows(), b.cols(), 0.0);
  matmul_acc(a, b, c, 1.0, ctx);
  return c;
}

Matrix matmul(const Matrix& a, const Matrix& b, int threads) {
  return matmul(a, b, ExecContext(1, threads));
}

void matmul_tn_acc(const Matrix& a, const Matrix& b, Matrix& c, double alpha,
                   const ExecContext& ctx) {
  tn_acc(a, b, c, alpha, ctx, /*lower_only=*/false);
}

Matrix matmul_tn(const Matrix& a, const Matrix& b, const ExecContext& ctx) {
  Matrix c(a.cols(), b.cols(), 0.0);
  matmul_tn_acc(a, b, c, 1.0, ctx);
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b, int threads) {
  return matmul_tn(a, b, ExecContext(1, threads));
}

void matmul_nt_acc(const Matrix& a, const Matrix& b, Matrix& c, double alpha,
                   const ExecContext& ctx) {
  // a: (M×K), b: (N×K), c: (M×N) += alpha * a bᵀ. Reduction dim is K.
  const std::size_t M = a.rows(), K = a.cols(), N = b.rows();
  PF_CHECK(b.cols() == K) << "matmul_nt shape mismatch";
  PF_CHECK(c.rows() == M && c.cols() == N);
  gemm_driver(
      M, N, K, alpha,
      [&](std::size_t i, std::size_t k) { return a.row(i)[k]; }, DirectA{},
      [&](std::size_t k, std::size_t j) { return b.row(j)[k]; }, c, ctx);
}

Matrix matmul_nt(const Matrix& a, const Matrix& b, const ExecContext& ctx) {
  Matrix c(a.rows(), b.rows(), 0.0);
  matmul_nt_acc(a, b, c, 1.0, ctx);
  return c;
}

void syrk_tn_acc(const Matrix& a, Matrix& c, double alpha,
                 const ExecContext& ctx) {
  tn_acc(a, a, c, alpha, ctx, /*lower_only=*/true);
  // Mirror once every chunk has finished: the source (j, i) of an upper
  // element (i, j) may belong to another chunk's rows.
  for (std::size_t i = 0; i < c.rows(); ++i)
    for (std::size_t j = i + 1; j < c.cols(); ++j) c(i, j) = c(j, i);
}

std::vector<double> matvec(const Matrix& a, const std::vector<double>& x) {
  PF_CHECK(a.cols() == x.size());
  std::vector<double> y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.row(i);
    double s = 0.0;
    for (std::size_t j = 0; j < a.cols(); ++j) s += arow[j] * x[j];
    y[i] = s;
  }
  return y;
}

}  // namespace pf
