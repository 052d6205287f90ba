// Dense matrix products.
//
// matmul     : C = A · B
// matmul_tn  : C = Aᵀ · B   (used for Kronecker factors  A_l = Uᵀ U)
// matmul_nt  : C = A · Bᵀ   (used for backward passes dX = dY · Wᵀ ... )
// syrk_tn_acc: C += α·Aᵀ · A (the K-FAC curvature factor; only the lower
//              triangle's tiles run, the upper is mirrored)
//
// All of them run through one packed driver: B is packed once into NR-wide
// column slivers, A into MR-row tiles (the tn products skip the A pack
// entirely — aᵀ's column walk is already k-major in a's row-major storage,
// so the microkernel reads the source matrix directly), and an MR×NR
// register microkernel does the flops. The kernel
// and its tile geometry are chosen at runtime via src/common/cpu_features.h:
//   scalar   6×8 portable tile, no ISA assumptions
//   avx2     6×8 AVX2+FMA tile
//   avx512   8×16 AVX-512F tile
// PF_SIMD_LEVEL={scalar,avx2,avx512} in the environment pins a tier
// (PF_FORCE_SCALAR=1 remains an alias for scalar); set_simd_level() switches
// it programmatically.
//
// Threading — two call styles per kernel:
//   trailing int threads (legacy, the seed API):
//     threads == 1  — single-threaded (the seed behaviour).
//     threads  > 1  — output rows split into `threads` contiguous blocks
//                     executed on the process-global ThreadPool.
//     threads == 0  — use the process-wide default (set_gemm_threads).
//   trailing ExecContext (the hot-path API): row blocks = ctx.gemm_threads()
//     (0 = process default) dispatched on ctx.pool() — inside a pipeline
//     stage that is the runtime's own worker pool, so GEMMs respect the
//     per-stage budget instead of escaping to the global pool.
//
// Determinism: within one SIMD level, results are bitwise identical for
// every thread count, pool, and call style — each output element
// accumulates its k terms in ascending order no matter how the rows are
// partitioned or how A is addressed. Across SIMD levels results may differ
// in the last ulps (the FMA paths fuse each multiply-add into one rounding;
// the scalar path rounds twice), so cross-ISA comparisons need an epsilon,
// not equality — see the GemmSimd tests.
#pragma once

#include "src/linalg/matrix.h"

namespace pf {

class ExecContext;

// Process-wide default used when a kernel is called with threads == 0.
// n <= 1 selects the serial path. Since the ExecContext refactor the storage
// lives on the process-default ExecContext (src/common/exec_context.h);
// these remain as thin aliases of ExecContext::set_default_gemm_threads /
// default_gemm_threads for the seed-era call sites.
void set_gemm_threads(int n);
int gemm_threads();

// Resolves the `threads` convention every parallel linalg/K-FAC entry point
// shares: 0 = the set_gemm_threads global knob, floor of 1. Feed the result
// straight to ThreadPool::parallel_for (which already runs inline for one
// chunk and clamps to the index range).
std::size_t resolve_gemm_threads(int threads);

// C = A(M×K) · B(K×N).
Matrix matmul(const Matrix& a, const Matrix& b, int threads = 0);

// C = Aᵀ(M×K)ᵀ=(K×M) · B(M... ); precisely: a is (M×K), b is (M×N),
// result is (K×N) = aᵀ·b.
Matrix matmul_tn(const Matrix& a, const Matrix& b, int threads = 0);

// a is (M×K), b is (N×K), result is (M×N) = a·bᵀ.
Matrix matmul_nt(const Matrix& a, const Matrix& b, int threads = 0);

// In-place accumulating variants: c += alpha * product. Shapes must match.
void matmul_acc(const Matrix& a, const Matrix& b, Matrix& c,
                double alpha = 1.0, int threads = 0);
void matmul_tn_acc(const Matrix& a, const Matrix& b, Matrix& c,
                   double alpha = 1.0, int threads = 0);
void matmul_nt_acc(const Matrix& a, const Matrix& b, Matrix& c,
                   double alpha = 1.0, int threads = 0);

// ExecContext overloads: identical math, but row blocks follow
// ctx.gemm_threads() and dispatch on ctx.pool() — the per-stage worker
// budget inside the pipeline runtime. Bitwise identical to the int-threads
// forms at every setting.
Matrix matmul(const Matrix& a, const Matrix& b, const ExecContext& ctx);
Matrix matmul_tn(const Matrix& a, const Matrix& b, const ExecContext& ctx);
Matrix matmul_nt(const Matrix& a, const Matrix& b, const ExecContext& ctx);
void matmul_acc(const Matrix& a, const Matrix& b, Matrix& c, double alpha,
                const ExecContext& ctx);
void matmul_tn_acc(const Matrix& a, const Matrix& b, Matrix& c, double alpha,
                   const ExecContext& ctx);
void matmul_nt_acc(const Matrix& a, const Matrix& b, Matrix& c, double alpha,
                   const ExecContext& ctx);

// Symmetric rank-k update c(K×K) += alpha · aᵀa for a (M×K). Only the
// register tiles touching the lower triangle run (about half the flops of
// matmul_tn_acc); the upper triangle is then mirrored from the lower. c must
// be symmetric on entry (zero, or the result of earlier syrk_tn_acc calls)
// and stays so. The result is bitwise equal to matmul_tn_acc(a, a, c, alpha,
// ctx) on every SIMD level and thread count: element (i, j) and (j, i) run
// the same ascending-k chain of products a(k,i)·a(k,j), and a rounded
// product or an FMA does not depend on the order of its two factors.
void syrk_tn_acc(const Matrix& a, Matrix& c, double alpha,
                 const ExecContext& ctx);

// y = A·x for a vector x (len = cols). Result length = rows.
std::vector<double> matvec(const Matrix& a, const std::vector<double>& x);

}  // namespace pf
