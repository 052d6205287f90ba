#include "src/nn/linear.h"

#include <utility>

#include "src/linalg/gemm.h"

namespace pf {

Linear::Linear(std::size_t d_in, std::size_t d_out, Rng& rng,
               const std::string& name, double init_std)
    : d_in_(d_in),
      d_out_(d_out),
      name_(name),
      w_(d_in, d_out, name + ".weight"),
      b_(1, d_out, name + ".bias") {
  w_.w = Matrix::randn(d_in, d_out, rng, init_std);
}

Matrix Linear::affine(const Matrix& x, const ExecContext& ctx) const {
  PF_CHECK(x.cols() == d_in_)
      << name_ << ": input cols " << x.cols() << " != d_in " << d_in_;
  Matrix y = Matrix::uninitialized(x.rows(), d_out_);
  matmul_set(x, w_.w, y, 1.0, ctx);
  const double* bias = b_.w.row(0);
  ctx.parallel_for(y.rows(), [&](std::size_t r0, std::size_t r1) {
    for (std::size_t r = r0; r < r1; ++r) {
      double* row = y.row(r);
      for (std::size_t c = 0; c < d_out_; ++c) row[c] += bias[c];
    }
  });
  return y;
}

void Linear::read_input_of(const Linear& owner) {
  PF_CHECK(owner.input_owner() == &owner && &owner != this &&
           owner.d_in_ == d_in_)
      << name_ << " cannot read the input of " << owner.name_;
  input_of_.layer = &owner;
}

Matrix Linear::forward(const Matrix& x, bool training,
                       const ExecContext& ctx) {
  Matrix y = affine(x, ctx);
  if (training && input_owner() == this) {
    x_cache_ = x;
  } else if (training) {
    PF_CHECK(&x == &cached_input())
        << name_ << " reads the input of " << input_owner()->name_
        << ": a training forward takes that layer's cached input";
  }
  return y;
}

Matrix Linear::forward(Matrix&& x, bool training, const ExecContext& ctx) {
  if (input_owner() != this)
    return forward(std::as_const(x), training, ctx);
  Matrix y = affine(x, ctx);
  if (training) x_cache_ = std::move(x);
  return y;
}

Matrix Linear::backward(Matrix dy, const ExecContext& ctx) {
  // dW, db and dx write disjoint memory from unchanged inputs, so the B pass
  // then the W pass is the fused backward, bit for bit.
  Matrix dx = backward_dx(std::move(dy), ctx);
  backward_dw(ctx);
  return dx;
}

Matrix Linear::backward_dx(Matrix dy, const ExecContext& ctx) {
  PF_CHECK(dy.cols() == d_out_);
  PF_CHECK(!cached_input().empty()) << name_ << ": backward before forward";
  PF_CHECK(dy.rows() == cached_input().rows());
  // db += column sums; dx = dy·Wᵀ. The dW GEMM is deferred to backward_dw.
  // db is column-sharded: every bias coordinate accumulates its rows in
  // ascending order regardless of the partition — bitwise equal to serial.
  double* db = b_.g.row(0);
  ctx.parallel_for(d_out_, [&](std::size_t c0, std::size_t c1) {
    for (std::size_t r = 0; r < dy.rows(); ++r) {
      const double* row = dy.row(r);
      for (std::size_t c = c0; c < c1; ++c) db[c] += row[c];
    }
  });
  Matrix dx = Matrix::uninitialized(dy.rows(), d_in_);
  matmul_nt_set(dy, w_.w, dx, 1.0, ctx);
  dy_cache_ = std::move(dy);
  return dx;
}

void Linear::backward_dw(const ExecContext& ctx) {
  PF_CHECK(has_kfac_caches()) << name_ << ": backward_dw before backward_dx";
  matmul_tn_acc(cached_input(), dy_cache_, w_.g, 1.0, ctx);
}

void Linear::backward_dw(const Matrix& x, const Matrix& dy,
                         const ExecContext& ctx) {
  PF_CHECK(!x.empty() && !dy.empty())
      << name_ << ": backward_dw on an incomplete cache";
  PF_CHECK(x.rows() == dy.rows() && x.cols() == d_in_ && dy.cols() == d_out_);
  matmul_tn_acc(x, dy, w_.g, 1.0, ctx);
}

std::vector<std::size_t> input_owners(const std::vector<Linear*>& layers) {
  std::vector<std::size_t> owner(layers.size());
  for (std::size_t i = 0; i < layers.size(); ++i) {
    owner[i] = i;
    for (std::size_t j = 0; j < i; ++j)
      if (layers[j] == layers[i]->input_owner()) owner[i] = j;
  }
  return owner;
}

}  // namespace pf
