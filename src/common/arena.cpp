#include "src/common/arena.h"

#include <algorithm>
#include <cstring>
#include <utility>

namespace pf {

std::vector<double> ArenaAllocator::acquire(std::size_t n) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (n > 0) {
      // Smallest parked buffer that covers n, within a 2x waste bound so a
      // huge buffer never gets pinned under a tiny tensor.
      const auto it = free_.lower_bound(n);
      if (it != free_.end() && it->first <= 2 * n) {
        std::vector<double> buf = std::move(it->second);
        stats_.free_bytes -= it->first * sizeof(double);
        free_.erase(it);
        ++stats_.recycled;
        buf.resize(n);
        return buf;
      }
    }
    ++stats_.fresh;
  }
  // Exhaustion growth: allocate outside the lock.
  return std::vector<double>(n);
}

Matrix ArenaAllocator::acquire_matrix(std::size_t rows, std::size_t cols,
                                      double fill) {
  std::vector<double> buf = acquire(rows * cols);
  std::fill(buf.begin(), buf.end(), fill);
  return Matrix(rows, cols, std::move(buf));
}

Matrix ArenaAllocator::copy_matrix(const Matrix& src) {
  std::vector<double> buf = acquire(src.size());
  if (!buf.empty())
    std::memcpy(buf.data(), src.data(), src.size() * sizeof(double));
  return Matrix(src.rows(), src.cols(), std::move(buf));
}

void ArenaAllocator::release(std::vector<double>&& buf) {
  const std::size_t cap = buf.capacity();
  if (cap == 0) return;  // moved-from / never-allocated: nothing to park
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.released;
  stats_.free_bytes += cap * sizeof(double);
  stats_.peak_free_bytes = std::max(stats_.peak_free_bytes, stats_.free_bytes);
  free_.emplace(cap, std::move(buf));
}

void ArenaAllocator::release(Matrix&& m) { release(m.take_data()); }

ArenaAllocator::Stats ArenaAllocator::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

Matrix arena_matrix(ArenaAllocator* arena, std::size_t rows, std::size_t cols,
                    double fill) {
  return arena != nullptr ? arena->acquire_matrix(rows, cols, fill)
                          : Matrix(rows, cols, fill);
}

}  // namespace pf
