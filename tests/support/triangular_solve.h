// Per-vector triangular solves against a Cholesky factor L (L·Lᵀ = m).
//
// The textbook one-right-hand-side algorithm: cholesky_inverse
// (src/linalg/cholesky.h) solves 32 unit columns per pass and must match
// cholesky_solve per unit column bit for bit, and the K-FAC suites solve
// against materialized Fishers with it.
#pragma once

#include <vector>

#include "src/linalg/matrix.h"

namespace pf {

// Solve L·y = b (forward substitution), L lower-triangular.
std::vector<double> forward_substitute(const Matrix& l,
                                       const std::vector<double>& b);

// Solve Lᵀ·x = y (back substitution), L lower-triangular.
std::vector<double> back_substitute(const Matrix& l,
                                    const std::vector<double>& y);

// Solve (L·Lᵀ)·x = b.
std::vector<double> cholesky_solve(const Matrix& l,
                                   const std::vector<double>& b);

}  // namespace pf
