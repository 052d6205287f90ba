#include "src/linalg/matrix.h"

#include <algorithm>
#include <cmath>

namespace pf {

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::randn(std::size_t rows, std::size_t cols, Rng& rng,
                     double stddev) {
  Matrix m(rows, cols);
  for (auto& v : m.data_) v = rng.normal(0.0, stddev);
  return m;
}

Matrix Matrix::from_rows(const std::vector<std::vector<double>>& rows) {
  PF_CHECK(!rows.empty());
  const std::size_t cols = rows.front().size();
  Matrix m(rows.size(), cols);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    PF_CHECK(rows[r].size() == cols) << "ragged row " << r;
    std::copy(rows[r].begin(), rows[r].end(), m.row(r));
  }
  return m;
}

Matrix& Matrix::operator+=(const Matrix& o) {
  PF_CHECK(same_shape(o));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& o) {
  PF_CHECK(same_shape(o));
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= o.data_[i];
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

double Matrix::max_abs() const {
  double m = 0.0;
  for (double v : data_) m = std::max(m, std::abs(v));
  return m;
}

double Matrix::sum() const {
  double s = 0.0;
  for (double v : data_) s += v;
  return s;
}

Matrix Matrix::transposed() const {
  Matrix t(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) t(c, r) = (*this)(r, c);
  return t;
}

Matrix operator+(Matrix a, const Matrix& b) { return a += b; }
Matrix operator-(Matrix a, const Matrix& b) { return a -= b; }
Matrix operator*(Matrix a, double s) { return a *= s; }
Matrix operator*(double s, Matrix a) { return a *= s; }

double max_abs_diff(const Matrix& a, const Matrix& b) {
  PF_CHECK(a.same_shape(b));
  double m = 0.0;
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      m = std::max(m, std::abs(a(r, c) - b(r, c)));
  return m;
}

}  // namespace pf
