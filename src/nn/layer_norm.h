// Layer normalization over the feature dimension with learnable gain/bias.
#pragma once

#include "src/common/exec_context.h"
#include "src/nn/param.h"

namespace pf {

class LayerNorm {
 public:
  LayerNorm(std::size_t dim, const std::string& name, double eps = 1e-5);

  // Row-parallel over the context: each row's mean/variance/normalization
  // is independent, so every thread count matches serial bit for bit.
  Matrix forward(const Matrix& x, bool training = true,
                 const ExecContext& ctx = {});
  // dx is row-parallel; the gamma/beta gradient accumulation is
  // column-sharded (each coordinate sums rows in ascending order — the
  // serial per-location order at every thread count).
  Matrix backward(const Matrix& dy, const ExecContext& ctx = {});

  std::vector<Param*> params() { return {&gamma_, &beta_}; }

  // Cache externalization for pipeline stages (see linear.h). A training
  // forward writes both caches into the storage the layer holds when the
  // shape matches, into uninitialized storage otherwise.
  struct Cache {
    Matrix xhat;
    Matrix inv_std;  // [N × 1]
  };
  Cache save_cache() { return {std::move(xhat_), std::move(inv_std_)}; }
  void restore_cache(Cache&& c) {
    xhat_ = std::move(c.xhat);
    inv_std_ = std::move(c.inv_std);
  }

 private:
  std::size_t dim_;
  double eps_;
  Param gamma_;  // [1 × dim]
  Param beta_;   // [1 × dim]
  Matrix xhat_;
  Matrix inv_std_;  // [N × 1]
};

}  // namespace pf
