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
// across the pool. As in gemm.h, every entry takes a trailing ExecContext
// (default: serial): row blocks and column passes follow ctx.gemm_threads()
// on ctx.pool() — the per-stage worker budget inside the pipeline runtime.
// Results are bitwise identical for every thread count and pool.
#pragma once

#include <optional>

#include "src/common/exec_context.h"
#include "src/linalg/matrix.h"

namespace pf {

// Lower-triangular L with L·Lᵀ = m. Throws pf::Error if m is not
// (numerically) positive definite or not square.
Matrix cholesky(const Matrix& m, const ExecContext& ctx = {});

// Same, but returns nullopt instead of throwing on a non-PD matrix.
std::optional<Matrix> try_cholesky(const Matrix& m,
                                   const ExecContext& ctx = {});

// Full inverse (L·Lᵀ)⁻¹ from the factor L (torch.cholesky_inverse analog),
// symmetrized as 0.5·(x_ij + x_ji). For finite L it is bit for bit what
// forward then back substitution of each unit column gives (the oracle in
// tests/support/triangular_solve.h).
Matrix cholesky_inverse(const Matrix& l, const ExecContext& ctx = {});

// Convenience: (m + damping·I)⁻¹ for symmetric PSD m via Cholesky.
Matrix spd_inverse(const Matrix& m, double damping = 0.0,
                   const ExecContext& ctx = {});
// Forward for callers that pass a bare thread count: spd_inverse under
// ExecContext(1, threads). No default argument (see gemm.h).
Matrix spd_inverse(const Matrix& m, double damping, int threads);

// m += eps·I in place.
void add_diagonal(Matrix& m, double eps);

}  // namespace pf
