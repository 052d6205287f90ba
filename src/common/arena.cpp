#include "src/common/arena.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <utility>

namespace pf {

Matrix::Storage ArenaAllocator::acquire(std::size_t n) {
  Matrix::Storage buf;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // Smallest parked capacity that covers n, below a 2x waste bound so a
    // huge buffer never gets pinned under a tiny tensor; of that capacity,
    // the buffer parked last (warm in cache, and the ones left at the
    // bottom are what trim() finds unused).
    auto it = n > 0 ? free_.lower_bound(n) : free_.end();
    if (it != free_.end() && it->first < 2 * n) {
      it = std::prev(free_.upper_bound(it->first));
      buf = std::move(it->second.buf);
      stats_.free_bytes -= it->first * sizeof(double);
      free_.erase(it);
      ++stats_.recycled;
    } else {
      ++stats_.fresh;
    }
  }
  // Exhaustion growth allocates here, outside the lock; Storage leaves the
  // new elements unwritten.
  buf.resize(n);
  poison_unwritten(buf.data(), n);
  return buf;
}

Matrix ArenaAllocator::copy_matrix(const Matrix& src) {
  Matrix::Storage buf = acquire(src.size());
  if (!buf.empty())
    std::memcpy(buf.data(), src.data(), src.size() * sizeof(double));
  return Matrix(src.rows(), src.cols(), std::move(buf));
}

void ArenaAllocator::release(Matrix::Storage&& buf) {
  const std::size_t cap = buf.capacity();
  if (cap == 0) return;  // moved-from / never-allocated: nothing to park
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.released;
  stats_.free_bytes += cap * sizeof(double);
  stats_.peak_free_bytes = std::max(stats_.peak_free_bytes, stats_.free_bytes);
  free_.emplace(cap, Parked{std::move(buf), epoch_});
}

void ArenaAllocator::trim() {
  std::vector<Matrix::Storage> unused;  // freed after the lock is dropped
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = free_.begin(); it != free_.end();) {
    if (it->second.epoch < epoch_) {
      stats_.free_bytes -= it->first * sizeof(double);
      stats_.trimmed_bytes += it->first * sizeof(double);
      unused.push_back(std::move(it->second.buf));
      it = free_.erase(it);
    } else {
      ++it;
    }
  }
  ++epoch_;
}

void ArenaAllocator::release(Matrix&& m) { release(m.take_data()); }

ArenaAllocator::Stats ArenaAllocator::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace pf
