#include "src/linalg/matrix.h"

#include <algorithm>
#include <cmath>

namespace pf {

Matrix Matrix::randn(std::size_t rows, std::size_t cols, Rng& rng,
                     double stddev) {
  Matrix m(rows, cols);
  for (auto& v : m.data_) v = rng.normal(0.0, stddev);
  return m;
}

Matrix& Matrix::operator+=(const Matrix& o) {
  PF_CHECK(same_shape(o));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double s) {
  for (auto& v : data_) v *= s;
  return *this;
}

Matrix& Matrix::axpby(double a, const Matrix& o, double b) {
  PF_CHECK(same_shape(o));
  for (std::size_t i = 0; i < data_.size(); ++i)
    data_[i] = a * data_[i] + b * o.data_[i];
  return *this;
}

void Matrix::fill(double v) { std::fill(data_.begin(), data_.end(), v); }

double Matrix::frobenius_norm() const {
  double s = 0.0;
  for (double v : data_) s += v * v;
  return std::sqrt(s);
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

}  // namespace pf
