#include "src/linalg/matrix.h"

#include <pthread.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <mutex>
#include <unordered_map>

#if defined(__SANITIZE_ADDRESS__)
#define PF_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define PF_ASAN 1
#endif
#endif
#ifdef PF_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace pf {

namespace {

// This thread's hand-outs (thread_storage_handouts).
thread_local StorageHandouts t_handouts;

// The process-wide free lists of Matrix storage (matrix.h): parked blocks
// keyed by element count, the one parked last at the back.
class StoragePool {
 public:
  double* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(double);
    double* p = nullptr;
    {
      std::lock_guard<std::mutex> lock(mu_);
      std::vector<double*>& list = parked_[n];
      if (list.empty()) {
        p = static_cast<double*>(::operator new(bytes));
        ++t_handouts.fresh;
      } else {
        p = list.back();
        list.pop_back();
        bytes_.parked -= bytes;
        ++t_handouts.recycled;
#ifdef PF_ASAN
        ASAN_UNPOISON_MEMORY_REGION(p, bytes);
#endif
      }
      bytes_.live += bytes;
      bytes_.peak_live = std::max(bytes_.peak_live, bytes_.live);
    }
#ifndef NDEBUG
    std::fill(p, p + n, std::numeric_limits<double>::quiet_NaN());
#endif
    return p;
  }

  void deallocate(double* p, std::size_t n) {
    const std::size_t bytes = n * sizeof(double);
#ifdef PF_ASAN
    ASAN_POISON_MEMORY_REGION(p, bytes);
#endif
    std::lock_guard<std::mutex> lock(mu_);
    parked_[n].push_back(p);
    bytes_.live -= bytes;
    bytes_.parked += bytes;
  }

  StoragePoolBytes bytes() {
    std::lock_guard<std::mutex> lock(mu_);
    return bytes_;
  }

  void reset_peak() {
    std::lock_guard<std::mutex> lock(mu_);
    bytes_.peak_live = bytes_.live;
  }

  // fork(): taken by the prepare handler, released in parent and child.
  void lock() { mu_.lock(); }
  void unlock() { mu_.unlock(); }

 private:
  std::mutex mu_;
  std::unordered_map<std::size_t, std::vector<double*>> parked_;
  StoragePoolBytes bytes_;
};

// Never destroyed: a Matrix freed after main's locals, or by a static
// destructor, still parks its block here.
StoragePool& pool() {
  static StoragePool* const instance = [] {
    auto* p = new StoragePool;
    pthread_atfork([] { pool().lock(); }, [] { pool().unlock(); },
                   [] { pool().unlock(); });
    return p;
  }();
  return *instance;
}

}  // namespace

double* storage_pool_allocate(std::size_t n) { return pool().allocate(n); }

void storage_pool_deallocate(double* p, std::size_t n) noexcept {
  pool().deallocate(p, n);
}

StorageHandouts thread_storage_handouts() { return t_handouts; }

StoragePoolBytes storage_pool_bytes() { return pool().bytes(); }

void reset_storage_pool_peak() { pool().reset_peak(); }

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
