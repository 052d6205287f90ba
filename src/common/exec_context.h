// Explicit execution context for the compute stack.
//
// A thread count reaches a kernel one way only: through the ExecContext it
// is called with. The context carries the thread-pool handle, the nn loop
// chunk count and the GEMM row-block count; the SIMD dispatch level stays
// process-wide (cpu_features.h). Every nn forward/backward, every
// GEMM/Cholesky entry and every K-FAC engine method takes one; a defaulted
// argument binds the default context, which is serial ({1, 1} on the
// process-global pool), so nothing parallelizes unless a caller asks with
// explicit counts — the pipeline runtime builds one context per stage, the
// training binaries one from their PF_NN_THREADS / PF_GEMM_THREADS
// environment. Buffers are not the context's business: Matrix storage
// recycles itself through one process-wide pool (linalg/matrix.h), whatever
// context a layer runs under.
//
// Determinism contract (extends gemm.h): every layer loop parallelized over
// an ExecContext partitions its work so each memory location receives its
// accumulations in the serial order — outputs are bitwise identical for
// every nn_threads/gemm_threads combination within one SIMD level. The
// NnThreads test suite pins this for each nn layer and end to end.
#pragma once

#include <cstddef>
#include <utility>

#include "src/common/thread_pool.h"

namespace pf {

class ExecContext {
 public:
  // Serial: one nn chunk, one GEMM row block, the process-global pool.
  ExecContext() = default;
  // Both counts must be >= 1; throws pf::Error naming the field otherwise.
  // pool == nullptr selects the process-global pool.
  explicit ExecContext(int nn_threads, int gemm_threads,
                       ThreadPool* pool = nullptr);

  // Chunk count of the nn row/head/token loops.
  int nn_threads() const { return nn_threads_; }
  // Row blocks (column passes for cholesky_inverse) of the linalg kernels.
  int gemm_threads() const { return gemm_threads_; }

  // Pool the nn loops and linalg kernels fan out on (the shared global pool
  // unless overridden).
  ThreadPool& pool() const { return pool_ ? *pool_ : ThreadPool::global(); }

  // Runs fn(begin, end) over [0, total) in nn_threads() contiguous chunks
  // on pool(); serial contexts call fn(0, total) inline with no
  // std::function wrap (the nn loops sit on hot paths).
  template <typename Fn>
  void parallel_for(std::size_t total, Fn&& fn) const {
    const auto n = static_cast<std::size_t>(nn_threads_);
    if (n <= 1 || total <= 1) {
      if (total > 0) fn(std::size_t{0}, total);
      return;
    }
    pool().parallel_for(total, n, std::forward<Fn>(fn));
  }

 private:
  int nn_threads_ = 1;
  int gemm_threads_ = 1;
  ThreadPool* pool_ = nullptr;
};

}  // namespace pf
