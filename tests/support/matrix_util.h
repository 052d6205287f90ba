// Matrix builders, reductions and a matrix-vector product for test
// assertions. The library's hot paths need none of them; the suites use
// them to write expected values and compare results.
#pragma once

#include <cstddef>
#include <vector>

#include "src/linalg/matrix.h"

namespace pf {

Matrix identity(std::size_t n);
// Row-major nested data; every row must have the same length.
Matrix from_rows(const std::vector<std::vector<double>>& rows);

double max_abs(const Matrix& m);
// Max elementwise absolute difference; shapes must match.
double max_abs_diff(const Matrix& a, const Matrix& b);

// y = A·x for a vector x (len = cols). Result length = rows.
std::vector<double> matvec(const Matrix& a, const std::vector<double>& x);

}  // namespace pf
