// Dense matrix products.
//
// matmul     : C = A · B
// matmul_tn  : C = Aᵀ · B   (used for Kronecker factors  A_l = Uᵀ U)
// matmul_nt  : C = A · Bᵀ   (used for backward passes dX = dY · Wᵀ ... )
// syrk_tn_acc: C += α·Aᵀ · A (the K-FAC curvature factor; only the lower
//              triangle's tiles run, the upper is mirrored)
//
// All of them run through one driver: B is packed once into NR-wide column
// slivers, and an MR×NR register microkernel reads Op(A) where it lies,
// through a (row stride, column stride) pair: (ld, 1) for the nn and nt
// products, (1, ld) for the tn products, whose aᵀ is a's column walk. Nothing
// copies A. The kernel and its tile geometry are chosen at runtime via
// src/common/cpu_features.h:
//   scalar   6×8 portable tile, no ISA assumptions
//   avx2     6×8 AVX2+FMA tile
//   avx512   8×16 AVX-512F tile
// PF_SIMD_LEVEL={scalar,avx2,avx512} in the environment pins a tier (any
// other value throws; PF_FORCE_SCALAR=1 remains an alias for scalar);
// set_simd_level() switches it programmatically.
//
// Views: the accumulating (_acc) and overwriting (_set) products read A and
// B and write C through ConstMatView/MatView — a (pointer, rows, cols,
// leading dimension) window onto a Matrix, element (i, j) at
// data[i*ld + j]. A const Matrix& converts implicitly to a view of the
// whole matrix and a Matrix& lvalue to a writable one; the block
// constructors PF_CHECK that the block lies inside its Matrix, and each
// product PF_CHECKs ld >= cols and that C's span overlaps neither A's nor
// B's. Bounds are thus checked once per view, not per element. Views are
// call arguments: build them at the call and never store one (a view does
// not keep its Matrix alive, and reassigning the Matrix moves its
// storage). Addressing never enters the arithmetic, so a product on views
// gives the same bits as on contiguous copies.
//
// Overwrite: an _set product writes alpha·Op(A)·Op(B) into C without ever
// reading it — the first k block's epilogue adds to +0.0 instead of to C,
// later k blocks accumulate as usual, and K = 0 writes +0.0. That is what
// zero-filling C and calling the _acc form computes, ±0 included, so C may
// start uninitialized (Matrix::uninitialized) and the fill goes. matmul,
// matmul_tn and matmul_nt return their result that way.
//
// Pack buffer: each thread packs B into one grow-only thread_local buffer
// that every product kind shares. A threaded product's workers read the
// buffer of the thread that called it. That thread rewrites the buffer only
// at its next product, and while it waits in parallel_for it runs only its
// own loop's chunks (thread_pool.h), none of which packs B, so no buffer
// changes under a reader. Full panels are copied branch-free; only a partial
// last panel is zero-padded, so stale contents never reach C.
//
// Threading: every kernel takes a trailing ExecContext (default: serial).
// Output rows split into ctx.gemm_threads() contiguous blocks dispatched on
// ctx.pool() — inside a pipeline stage that is the runtime's own worker
// pool, so GEMMs respect the per-stage budget instead of escaping to the
// global pool.
//
// Determinism: within one SIMD level, results are bitwise identical for
// every thread count and pool — each output element accumulates its k terms
// in ascending order no matter how the rows are partitioned or how A, B and
// C are addressed. Across SIMD levels results may differ in the last ulps
// (the FMA paths fuse each multiply-add into one rounding; the scalar path
// rounds twice), so cross-ISA comparisons need an epsilon, not equality —
// see the GemmSimd tests. The exp kernel that dispatches on the same levels
// (exp_span.h, under GELU and softmax) is the exception: its tiers return
// identical bits.
#pragma once

#include "src/common/exec_context.h"
#include "src/linalg/matrix.h"

namespace pf {

// C = A(M×K) · B(K×N).
Matrix matmul(const Matrix& a, const Matrix& b, const ExecContext& ctx = {});

// a is (M×K), b is (M×N), result is (K×N) = aᵀ·b.
Matrix matmul_tn(const Matrix& a, const Matrix& b,
                 const ExecContext& ctx = {});

// a is (M×K), b is (N×K), result is (M×N) = a·bᵀ.
Matrix matmul_nt(const Matrix& a, const Matrix& b,
                 const ExecContext& ctx = {});

// Read-only view of a row-major block: element (i, j) at data[i*ld + j].
struct ConstMatView {
  const double* data;
  std::size_t rows, cols, ld;
  // The whole matrix (implicit, so a Matrix passes wherever a view goes).
  ConstMatView(const Matrix& m)
      : data(m.data()), rows(m.rows()), cols(m.cols()), ld(m.cols()) {}
  // The rows × cols block of m at (r0, c0); PF_CHECKs that it lies inside m.
  ConstMatView(const Matrix& m, std::size_t r0, std::size_t c0,
               std::size_t rows, std::size_t cols);
};

// Writable view of a row-major block: element (i, j) at data[i*ld + j].
struct MatView {
  double* data;
  std::size_t rows, cols, ld;
  // The whole matrix (implicit, as above; only from a non-const lvalue).
  MatView(Matrix& m)
      : data(m.data()), rows(m.rows()), cols(m.cols()), ld(m.cols()) {}
  // The rows × cols block of m at (r0, c0); PF_CHECKs that it lies inside m.
  MatView(Matrix& m, std::size_t r0, std::size_t c0, std::size_t rows,
          std::size_t cols);
};

// In-place accumulating variants: c += alpha * product. Shapes must match,
// and c may not overlap a or b.
void matmul_acc(ConstMatView a, ConstMatView b, MatView c, double alpha = 1.0,
                const ExecContext& ctx = {});
void matmul_tn_acc(ConstMatView a, ConstMatView b, MatView c,
                   double alpha = 1.0, const ExecContext& ctx = {});
void matmul_nt_acc(ConstMatView a, ConstMatView b, MatView c,
                   double alpha = 1.0, const ExecContext& ctx = {});

// Overwriting variants: c = alpha * product, every element of c written and
// none read (see "Overwrite" above); bitwise equal to zero-filling c and
// calling the _acc form. Same shape and overlap rules.
void matmul_set(ConstMatView a, ConstMatView b, MatView c, double alpha = 1.0,
                const ExecContext& ctx = {});
void matmul_tn_set(ConstMatView a, ConstMatView b, MatView c,
                   double alpha = 1.0, const ExecContext& ctx = {});
void matmul_nt_set(ConstMatView a, ConstMatView b, MatView c,
                   double alpha = 1.0, const ExecContext& ctx = {});

// Forwards for callers that pass a bare row-block count: the same product
// under ExecContext(1, threads). No default argument, so a call without a
// third argument binds the context form.
Matrix matmul(const Matrix& a, const Matrix& b, int threads);
Matrix matmul_tn(const Matrix& a, const Matrix& b, int threads);

// Symmetric rank-k update c(K×K) += alpha · aᵀa for a (M×K). Only the
// register tiles touching the lower triangle run (about half the flops of
// matmul_tn_acc); the upper triangle is then mirrored from the lower. c must
// be symmetric on entry (zero, or the result of earlier syrk_tn_acc calls)
// and stays so. The result is bitwise equal to matmul_tn_acc(a, a, c, alpha,
// ctx) on every SIMD level and thread count: element (i, j) and (j, i) run
// the same ascending-k chain of products a(k,i)·a(k,j), and a rounded
// product or an FMA does not depend on the order of its two factors.
void syrk_tn_acc(const Matrix& a, Matrix& c, double alpha,
                 const ExecContext& ctx = {});

}  // namespace pf
