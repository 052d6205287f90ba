// Explicit execution context for the compute stack.
//
// PR 1/PR 3 threaded the linalg kernels behind trailing `threads` arguments
// and the implicit set_gemm_threads global; the nn layers reached that
// parallelism only through the global, and their own row/head/token loops
// stayed serial. ExecContext makes parallelism a first-class parameter of
// every forward/backward instead: it carries the thread-pool handle, the nn
// loop chunk count, the GEMM row-block count, the activation arena and the
// SIMD dispatch level the kernels beneath will use. A process-default
// instance — mutated through set_default_nn_threads /
// set_default_gemm_threads (the latter is what the legacy set_gemm_threads
// free function now writes) — replaces the old global as the single knob;
// layer signatures default to it, so call sites without an explicit
// context keep compiling and keep following the knobs.
//
// Determinism contract (extends gemm.h): every layer loop parallelized over
// an ExecContext partitions its work so each memory location receives its
// accumulations in the serial order — outputs are bitwise identical for
// every nn_threads/gemm_threads combination within one SIMD level. The
// NnThreads test suite pins this for each nn layer and end to end.
#pragma once

#include <cstddef>
#include <utility>

#include "src/common/cpu_features.h"
#include "src/common/thread_pool.h"

namespace pf {

class ArenaAllocator;  // common/arena.h

class ExecContext {
 public:
  // Follows the process-default knobs: thread counts of 0 resolve through
  // default_nn_threads() / the gemm default at the moment of use.
  ExecContext() = default;
  explicit ExecContext(int nn_threads, int gemm_threads = 0,
                       ThreadPool* pool = nullptr)
      : nn_threads_(nn_threads), gemm_threads_(gemm_threads), pool_(pool) {}

  // Pinned {1, 1}: the serial seed execution, independent of every knob.
  // Layers use it for tiny per-task products inside an already-parallel
  // region (e.g. per-head attention GEMMs) to avoid nested fan-out.
  static ExecContext serial() { return ExecContext(1, 1); }
  // Follow-the-knobs instance — what every defaulted layer signature binds.
  static ExecContext defaults() { return ExecContext(); }

  // Raw knob values; 0 = follow the corresponding process default.
  int nn_threads() const { return nn_threads_; }
  int gemm_threads() const { return gemm_threads_; }

  // Pool the nn loops fan out on (the shared global pool unless overridden).
  ThreadPool& pool() const { return pool_ ? *pool_ : ThreadPool::global(); }

  // Buffer recycler for activation caches/stashes; nullptr (the default)
  // means plain allocation. Set by the pipeline runtime on each stage's
  // context; layers route cache storage through arena_matrix/arena_copy
  // (common/arena.h), which fall back cleanly on null. Arena-backed values
  // equal plain-allocated values bit for bit — only the storage is reused.
  ArenaAllocator* arena() const { return arena_; }
  ExecContext& set_arena(ArenaAllocator* arena) {
    arena_ = arena;
    return *this;
  }

  // SIMD level the linalg kernels beneath this context dispatch on. SIMD
  // selection stays a process-wide property (cpu_features.h); the context
  // surfaces it so consumers log/record the level their results depend on.
  SimdLevel simd_level() const { return active_simd_level(); }

  // nn_threads with the 0 = process-default convention applied, floor 1.
  std::size_t resolved_nn_threads() const;

  // Runs fn(begin, end) over [0, total) in resolved_nn_threads() contiguous
  // chunks on pool(); serial contexts call fn(0, total) inline with no
  // std::function wrap (the nn loops sit on hot paths).
  template <typename Fn>
  void parallel_for(std::size_t total, Fn&& fn) const {
    const std::size_t n = resolved_nn_threads();
    if (n <= 1 || total <= 1) {
      if (total > 0) fn(std::size_t{0}, total);
      return;
    }
    pool().parallel_for(total, n, std::forward<Fn>(fn));
  }

  // Process-default knobs. nn: chunk count for the nn row/head/token loops
  // (PF_NN_THREADS in the examples). gemm: row-block count the linalg
  // kernels use for threads == 0 calls — the storage behind the legacy
  // set_gemm_threads/gemm_threads functions in gemm.h. Both floor at 1 and
  // are safe to flip between steps (atomic), not mid-kernel.
  static void set_default_nn_threads(int n);
  static int default_nn_threads();
  static void set_default_gemm_threads(int n);
  static int default_gemm_threads();

 private:
  int nn_threads_ = 0;
  int gemm_threads_ = 0;
  ThreadPool* pool_ = nullptr;
  ArenaAllocator* arena_ = nullptr;
};

}  // namespace pf
