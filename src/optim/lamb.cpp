#include "src/optim/lamb.h"

#include <cmath>

#include "src/common/check.h"

namespace pf {

Lamb::Lamb(double beta1, double beta2, double eps, double weight_decay,
           double max_trust)
    : beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay),
      max_trust_(max_trust) {
  PF_CHECK(beta1 > 0 && beta1 < 1 && beta2 > 0 && beta2 < 1);
  PF_CHECK(max_trust > 0.0);
}

void Lamb::step(const std::vector<Param*>& params, double lr) {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (Param* p : params) {
    Matrix& m = m_.get(p);
    Matrix& v = v_.get(p);
    Matrix update(p->w.rows(), p->w.cols());
    for (std::size_t i = 0; i < p->w.rows(); ++i) {
      for (std::size_t j = 0; j < p->w.cols(); ++j) {
        const double g = p->g(i, j);
        m(i, j) = beta1_ * m(i, j) + (1.0 - beta1_) * g;
        v(i, j) = beta2_ * v(i, j) + (1.0 - beta2_) * g * g;
        const double mhat = m(i, j) / bc1;
        const double vhat = v(i, j) / bc2;
        update(i, j) = mhat / (std::sqrt(vhat) + eps_) +
                       weight_decay_ * p->w(i, j);
      }
    }
    const double wnorm = p->w.frobenius_norm();
    const double unorm = update.frobenius_norm();
    double trust = 1.0;
    if (wnorm > 0.0 && unorm > 0.0)
      trust = std::min(wnorm / unorm, max_trust_);
    for (std::size_t i = 0; i < p->w.rows(); ++i)
      for (std::size_t j = 0; j < p->w.cols(); ++j)
        p->w(i, j) -= lr * trust * update(i, j);
  }
}

}  // namespace pf
