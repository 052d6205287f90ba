// Cholesky factorization and symmetric positive-definite inversion.
//
// K-FAC inverts its Kronecker factors A_l, B_l (symmetric PSD + damping)
// with exactly this pair of operations — the paper calls
// torch.linalg.cholesky() followed by torch.linalg.cholesky_inverse().
//
// The factorization is right-looking and blocked (64-wide panels): the panel
// solve and trailing rank-k update parallelize over rows. cholesky_inverse
// solves 32 unit columns per pass over a transposed copy of L (the inner
// loops run across the pass's columns) and fans the independent passes
// across the pool. Two call
// styles, as in gemm.h: a trailing `int threads` (1 = serial, 0 = the
// process-wide set_gemm_threads default; dispatches on the process-global
// pool) and a trailing ExecContext (row blocks = ctx.gemm_threads() on
// ctx.pool() — the per-stage worker budget inside the pipeline runtime).
// Results are bitwise identical for every thread count, pool and call style.
#pragma once

#include <optional>

#include "src/linalg/matrix.h"

namespace pf {

class ExecContext;

// Lower-triangular L with L·Lᵀ = m. Throws pf::Error if m is not
// (numerically) positive definite or not square.
Matrix cholesky(const Matrix& m, int threads = 0);

// Same, but returns nullopt instead of throwing on a non-PD matrix.
std::optional<Matrix> try_cholesky(const Matrix& m, int threads = 0);

// Full inverse (L·Lᵀ)⁻¹ from the factor L (torch.cholesky_inverse analog),
// symmetrized as 0.5·(x_ij + x_ji). For finite L it is bit for bit what
// forward then back substitution of each unit column gives (the oracle in
// tests/support/triangular_solve.h).
Matrix cholesky_inverse(const Matrix& l, int threads = 0);

// Convenience: (m + damping·I)⁻¹ for symmetric PSD m via Cholesky.
Matrix spd_inverse(const Matrix& m, double damping = 0.0, int threads = 0);

// ExecContext overloads: identical math on ctx.gemm_threads() row blocks /
// column chunks dispatched on ctx.pool().
Matrix cholesky(const Matrix& m, const ExecContext& ctx);
std::optional<Matrix> try_cholesky(const Matrix& m, const ExecContext& ctx);
Matrix cholesky_inverse(const Matrix& l, const ExecContext& ctx);
Matrix spd_inverse(const Matrix& m, double damping, const ExecContext& ctx);

// m += eps·I in place.
void add_diagonal(Matrix& m, double eps);

}  // namespace pf
