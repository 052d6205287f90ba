#include "src/common/exec_context.h"

#include "src/common/check.h"

namespace pf {

ExecContext::ExecContext(int nn_threads, int gemm_threads, ThreadPool* pool)
    : nn_threads_(nn_threads), gemm_threads_(gemm_threads), pool_(pool) {
  PF_CHECK(nn_threads >= 1)
      << "ExecContext nn_threads must be >= 1, got " << nn_threads;
  PF_CHECK(gemm_threads >= 1)
      << "ExecContext gemm_threads must be >= 1, got " << gemm_threads;
}

}  // namespace pf
