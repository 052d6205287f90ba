#include "src/linalg/gemm.h"

#include <algorithm>
#include <cstdint>
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

// GCC's loop vectorizer, given the unknown A strides, versions the k loop
// for a unit stride and vectorizes it as in-order reductions, which runs
// this kernel about 2x slower than the superword-vectorized j loop it gets
// without that pass. Either way each element's chain is the same.
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((optimize("no-tree-loop-vectorize")))
#endif
void micro_kernel_scalar(std::size_t kc, double alpha, const double* ap,
                         std::size_t a_rs, std::size_t a_cs, const double* bp,
                         double* c, std::size_t ldc, std::size_t mr,
                         std::size_t nr, bool overwrite) {
  // Two output rows per pass: their 2×kNR accumulators fit the baseline
  // SSE2 register file (a full 6×8 tile would spill) while giving the
  // floating-point adders enough independent chains to hide their latency.
  // Per element the k loop ascends and alpha is applied once at the end —
  // the same structure as the AVX2 kernel, in plain mul+add arithmetic, so
  // thread partitioning is bitwise neutral here too (an element's chain does
  // not depend on whether its row ran paired or as the odd tail); the B
  // sliver is re-streamed per row pair from L1. An overwrite adds alpha·acc
  // to +0.0 instead of to C, as a zero-filled C would.
  std::size_t i = 0;
  for (; i + 1 < mr; i += 2) {
    double acc0[kNR] = {}, acc1[kNR] = {};
    for (std::size_t k = 0; k < kc; ++k) {
      const double a0 = ap[i * a_rs + k * a_cs];
      const double a1 = ap[(i + 1) * a_rs + k * a_cs];
      const double* brow = bp + k * kNR;
      for (std::size_t j = 0; j < kNR; ++j) {
        acc0[j] += a0 * brow[j];
        acc1[j] += a1 * brow[j];
      }
    }
    double* c0 = c + i * ldc;
    double* c1 = c0 + ldc;
    for (std::size_t j = 0; j < nr; ++j) {
      c0[j] = (overwrite ? 0.0 : c0[j]) + alpha * acc0[j];
      c1[j] = (overwrite ? 0.0 : c1[j]) + alpha * acc1[j];
    }
  }
  for (; i < mr; ++i) {
    double acc[kNR] = {};
    for (std::size_t k = 0; k < kc; ++k) {
      const double a = ap[i * a_rs + k * a_cs];
      const double* brow = bp + k * kNR;
      for (std::size_t j = 0; j < kNR; ++j) acc[j] += a * brow[j];
    }
    double* c0 = c + i * ldc;
    for (std::size_t j = 0; j < nr; ++j)
      c0[j] = (overwrite ? 0.0 : c0[j]) + alpha * acc[j];
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

// Where Op(A)(i, k) lives: p[i*rs + k*cs]. Row-major A (the nn and nt
// products) has (rs, cs) = (ld, 1); the tn products read aᵀ(i, k) = a(k, i)
// with (1, ld). The microkernel reads A there in place.
struct ASource {
  const double* p;
  std::size_t rs, cs;
};

// Where Op(B)(k, j) lives: p[k*ld + j] for row-major B (the nn and tn
// products), p[j*ld + k] when transposed (the nt product's Bᵀ).
struct BSource {
  const double* p;
  std::size_t ld;
  bool transposed;
};

// Packs all of Op(B) (reduction dim K × output cols N) into NR-wide column
// slivers grouped by kKC block:
//   packed[block t][panel p][k*NR + j]
// NR is the active kernel's full tile width (8 for scalar/AVX2, 16 for
// AVX-512), a template argument so that the full-panel copies unroll. Block
// t occupies kb_t * n_panels * NR doubles starting at t * kKC * n_panels * NR
// (every block before the last is full, so the prefix is exact). Full
// panels are copied branch-free; only a partial last panel is zero-padded
// past its width, so whatever an earlier product left in the buffer is
// overwritten before the microkernel reads it.
template <std::size_t NR>
void pack_panels(std::size_t K, std::size_t N, const BSource& b,
                 double* packed) {
  const std::size_t n_panels = (N + NR - 1) / NR;
  for (std::size_t k0 = 0; k0 < K; k0 += kKC) {
    const std::size_t kb = std::min(kKC, K - k0);
    double* block = packed + k0 * n_panels * NR;
    for (std::size_t p = 0; p < n_panels; ++p) {
      const std::size_t j0 = p * NR;
      const std::size_t jw = std::min(NR, N - j0);
      double* dst = block + p * kb * NR;
      if (jw == NR && !b.transposed) {
        for (std::size_t k = 0; k < kb; ++k) {
          const double* src = b.p + (k0 + k) * b.ld + j0;
          for (std::size_t jj = 0; jj < NR; ++jj) dst[k * NR + jj] = src[jj];
        }
      } else if (jw == NR) {
        for (std::size_t k = 0; k < kb; ++k) {
          const double* src = b.p + j0 * b.ld + k0 + k;
          for (std::size_t jj = 0; jj < NR; ++jj)
            dst[k * NR + jj] = src[jj * b.ld];
        }
      } else {
        for (std::size_t k = 0; k < kb; ++k)
          for (std::size_t jj = 0; jj < NR; ++jj)
            dst[k * NR + jj] =
                jj < jw ? b.p[b.transposed ? (j0 + jj) * b.ld + k0 + k
                                           : (k0 + k) * b.ld + j0 + jj]
                        : 0.0;
      }
    }
  }
}

// Packs Op(B) for a kernel of tile width NR into this thread's buffer and
// returns it. The buffer is grow-only and shared by every product kind.
// Packing happens once, before the row-parallel phase; the workers only read
// it. That is safe because a parallel_for caller runs only its own loop's
// chunks (thread_pool.h), and those (gemm_rows_packed) never pack B: no
// thread rewrites its buffer while another thread reads it.
const double* pack_b(std::size_t K, std::size_t N, const BSource& b,
                     std::size_t NR) {
  PF_ASSERT(NR == 8 || NR == 16) << "no B pack for tile width " << NR;
  thread_local std::vector<double> buf;
  const std::size_t size = K * ((N + NR - 1) / NR) * NR;
  if (buf.size() < size) buf.resize(size);
  (NR == 16 ? pack_panels<16> : pack_panels<8>)(K, N, b, buf.data());
  return buf.data();
}

// Computes C rows [r0, r1) += alpha * Op(A)·Op(B) from the pre-packed B,
// or, with `overwrite`, C rows = alpha * Op(A)·Op(B): the first k block then
// writes each tile without reading it. Loop order: k block → column sliver
// → row tile, so each output element sees ascending k regardless of where
// [r0, r1) starts — the thread partition cannot change results within one
// SIMD level. lower_only skips every register tile lying wholly above the
// diagonal (column > row for all its elements); the tiles it runs are
// computed exactly as without it.
void gemm_rows_packed(std::size_t r0, std::size_t r1, std::size_t N,
                      std::size_t K, double alpha, const ASource& a,
                      const double* packed_b, const MatView& c,
                      const detail::KernelSpec& spec, bool overwrite,
                      bool lower_only) {
  const std::size_t MR = spec.mr, NR = spec.nr;
  const std::size_t n_panels = (N + NR - 1) / NR;
  for (std::size_t k0 = 0; k0 < K; k0 += kKC) {
    const std::size_t kb = std::min(kKC, K - k0);
    const double* bblock = packed_b + k0 * n_panels * NR;
    const bool first_write = overwrite && k0 == 0;
    for (std::size_t p = 0; p < n_panels; ++p) {
      const std::size_t j0 = p * NR;
      if (lower_only && j0 >= r1) break;  // later slivers lie further right
      const std::size_t jw = std::min(NR, N - j0);
      const double* bp = bblock + p * kb * NR;
      if (p + 1 < n_panels) {
        // Touch the head of the next B sliver while this one computes so
        // the hardware streamer is already running when we get there.
        const double* nb = bblock + (p + 1) * kb * NR;
        PF_PREFETCH_R(nb);
        PF_PREFETCH_R(nb + 8);
      }
      for (std::size_t ti = r0; ti < r1; ti += MR) {
        const std::size_t mr = std::min(MR, r1 - ti);
        if (lower_only && ti + mr <= j0) continue;
        // The next C tile is read only when it accumulates.
        if (!first_write && ti + MR < r1)
          PF_PREFETCH_R(c.data + (ti + MR) * c.ld + j0);
        spec.fn(kb, alpha, a.p + ti * a.rs + k0 * a.cs, a.rs, a.cs, bp,
                c.data + ti * c.ld + j0, c.ld, mr, jw, first_write);
      }
    }
  }
}

// Shared driver: C(M×N) += alpha * Op(A)·Op(B), or C = alpha * Op(A)·Op(B)
// with `overwrite` (C is written, never read: the bits of zero-filling C
// first). B is packed once up front; output rows are then split into
// ctx.gemm_threads() contiguous blocks on ctx.pool(). lower_only (square C)
// runs only the tiles touching the lower triangle, in the same row chunks.
void gemm_driver(std::size_t M, std::size_t N, std::size_t K, double alpha,
                 const ASource& a, const BSource& b, const MatView& c,
                 const ExecContext& ctx, bool overwrite,
                 bool lower_only = false) {
  if (M == 0 || N == 0) return;
  if (K == 0) {  // alpha·(empty sum): += leaves C, an overwrite writes +0.0
    if (overwrite)
      for (std::size_t i = 0; i < M; ++i)
        std::fill_n(c.data + i * c.ld, N, 0.0);
    return;
  }
  const detail::KernelSpec spec = detail::active_kernel_spec();
  const double* packed_b = pack_b(K, N, b, spec.nr);
  const auto n_threads = static_cast<std::size_t>(ctx.gemm_threads());
  if (n_threads <= 1 || M <= 1) {
    // Serial fast path: skip the std::function wrap — small products in the
    // nn forward/backward loops call in here at high frequency.
    gemm_rows_packed(0, M, N, K, alpha, a, packed_b, c, spec, overwrite,
                     lower_only);
    return;
  }
  ctx.pool().parallel_for(M, n_threads, [&](std::size_t r0, std::size_t r1) {
    gemm_rows_packed(r0, r1, N, K, alpha, a, packed_b, c, spec, overwrite,
                     lower_only);
  });
}

// Offset of a view's first element in m, once its block is checked to lie
// inside m.
std::size_t block_offset(const Matrix& m, std::size_t r0, std::size_t c0,
                         std::size_t rows, std::size_t cols) {
  PF_CHECK(r0 <= m.rows() && rows <= m.rows() - r0 && c0 <= m.cols() &&
           cols <= m.cols() - c0)
      << "view " << rows << "x" << cols << " at (" << r0 << "," << c0
      << ") outside a " << m.rows() << "x" << m.cols() << " matrix";
  return r0 * m.cols() + c0;
}

// True when the element ranges [data, data + (rows-1)*ld + cols) of two
// views share no byte; an empty view shares none.
template <typename X, typename Y>
bool disjoint(const X& x, const Y& y) {
  if (x.rows == 0 || x.cols == 0 || y.rows == 0 || y.cols == 0) return true;
  const auto x0 = reinterpret_cast<std::uintptr_t>(x.data);
  const auto y0 = reinterpret_cast<std::uintptr_t>(y.data);
  return x0 + ((x.rows - 1) * x.ld + x.cols) * sizeof(double) <= y0 ||
         y0 + ((y.rows - 1) * y.ld + y.cols) * sizeof(double) <= x0;
}

// The checks every product runs once per call, before any element moves.
void check_operands(const char* what, const ConstMatView& a,
                    const ConstMatView& b, const MatView& c) {
  PF_CHECK(a.ld >= a.cols && b.ld >= b.cols && c.ld >= c.cols)
      << what << ": leading dimension below the view's cols";
  PF_CHECK(disjoint(c, a) && disjoint(c, b))
      << what << ": C overlaps an input";
}

// The three products on views: c (+)= alpha · Op(a)·Op(b), overwriting c
// when `overwrite` is set. tn: c(K×N) from a (M×K), b (M×N), reduction dim
// M; syrk passes lower_only.
void nn_product(const ConstMatView& a, const ConstMatView& b,
                const MatView& c, double alpha, const ExecContext& ctx,
                bool overwrite) {
  const std::size_t M = a.rows, K = a.cols, N = b.cols;
  PF_CHECK(b.rows == K) << "matmul shape: " << M << "x" << K << " * "
                        << b.rows << "x" << N;
  PF_CHECK(c.rows == M && c.cols == N) << "matmul output " << c.rows << "x"
                                       << c.cols << ", want " << M << "x" << N;
  check_operands("matmul", a, b, c);
  gemm_driver(M, N, K, alpha, ASource{a.data, a.ld, 1},
              BSource{b.data, b.ld, /*transposed=*/false}, c, ctx, overwrite);
}

void tn_product(const ConstMatView& a, const ConstMatView& b,
                const MatView& c, double alpha, const ExecContext& ctx,
                bool overwrite, bool lower_only = false) {
  const std::size_t M = a.rows, K = a.cols, N = b.cols;
  PF_CHECK(b.rows == M) << "matmul_tn shape: " << M << "x" << K << "^T * "
                        << b.rows << "x" << N;
  PF_CHECK(c.rows == K && c.cols == N) << "matmul_tn output " << c.rows << "x"
                                       << c.cols << ", want " << K << "x" << N;
  check_operands("matmul_tn", a, b, c);
  gemm_driver(K, N, M, alpha, ASource{a.data, 1, a.ld},
              BSource{b.data, b.ld, /*transposed=*/false}, c, ctx, overwrite,
              lower_only);
}

void nt_product(const ConstMatView& a, const ConstMatView& b,
                const MatView& c, double alpha, const ExecContext& ctx,
                bool overwrite) {
  // a: (M×K), b: (N×K), c: (M×N). Reduction dim is K.
  const std::size_t M = a.rows, K = a.cols, N = b.rows;
  PF_CHECK(b.cols == K) << "matmul_nt shape: " << M << "x" << K << " * "
                        << b.rows << "x" << b.cols << "^T";
  PF_CHECK(c.rows == M && c.cols == N) << "matmul_nt output " << c.rows << "x"
                                       << c.cols << ", want " << M << "x" << N;
  check_operands("matmul_nt", a, b, c);
  gemm_driver(M, N, K, alpha, ASource{a.data, a.ld, 1},
              BSource{b.data, b.ld, /*transposed=*/true}, c, ctx, overwrite);
}

}  // namespace

ConstMatView::ConstMatView(const Matrix& m, std::size_t r0, std::size_t c0,
                           std::size_t rows_, std::size_t cols_)
    : data(m.data() + block_offset(m, r0, c0, rows_, cols_)),
      rows(rows_),
      cols(cols_),
      ld(m.cols()) {}

MatView::MatView(Matrix& m, std::size_t r0, std::size_t c0, std::size_t rows_,
                 std::size_t cols_)
    : data(m.data() + block_offset(m, r0, c0, rows_, cols_)),
      rows(rows_),
      cols(cols_),
      ld(m.cols()) {}

void matmul_acc(ConstMatView a, ConstMatView b, MatView c, double alpha,
                const ExecContext& ctx) {
  nn_product(a, b, c, alpha, ctx, /*overwrite=*/false);
}

void matmul_set(ConstMatView a, ConstMatView b, MatView c, double alpha,
                const ExecContext& ctx) {
  nn_product(a, b, c, alpha, ctx, /*overwrite=*/true);
}

Matrix matmul(const Matrix& a, const Matrix& b, const ExecContext& ctx) {
  Matrix c = Matrix::uninitialized(a.rows(), b.cols());
  matmul_set(a, b, c, 1.0, ctx);
  return c;
}

Matrix matmul(const Matrix& a, const Matrix& b, int threads) {
  return matmul(a, b, ExecContext(1, threads));
}

void matmul_tn_acc(ConstMatView a, ConstMatView b, MatView c, double alpha,
                   const ExecContext& ctx) {
  tn_product(a, b, c, alpha, ctx, /*overwrite=*/false);
}

void matmul_tn_set(ConstMatView a, ConstMatView b, MatView c, double alpha,
                   const ExecContext& ctx) {
  tn_product(a, b, c, alpha, ctx, /*overwrite=*/true);
}

Matrix matmul_tn(const Matrix& a, const Matrix& b, const ExecContext& ctx) {
  Matrix c = Matrix::uninitialized(a.cols(), b.cols());
  matmul_tn_set(a, b, c, 1.0, ctx);
  return c;
}

Matrix matmul_tn(const Matrix& a, const Matrix& b, int threads) {
  return matmul_tn(a, b, ExecContext(1, threads));
}

void matmul_nt_acc(ConstMatView a, ConstMatView b, MatView c, double alpha,
                   const ExecContext& ctx) {
  nt_product(a, b, c, alpha, ctx, /*overwrite=*/false);
}

void matmul_nt_set(ConstMatView a, ConstMatView b, MatView c, double alpha,
                   const ExecContext& ctx) {
  nt_product(a, b, c, alpha, ctx, /*overwrite=*/true);
}

Matrix matmul_nt(const Matrix& a, const Matrix& b, const ExecContext& ctx) {
  Matrix c = Matrix::uninitialized(a.rows(), b.rows());
  matmul_nt_set(a, b, c, 1.0, ctx);
  return c;
}

void syrk_tn_acc(const Matrix& a, Matrix& c, double alpha,
                 const ExecContext& ctx) {
  tn_product(a, a, c, alpha, ctx, /*overwrite=*/false, /*lower_only=*/true);
  // Mirror once every chunk has finished: the source (j, i) of an upper
  // element (i, j) may belong to another chunk's rows.
  const std::size_t n = c.rows();
  double* d = c.data();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) d[i * n + j] = d[j * n + i];
}

}  // namespace pf
