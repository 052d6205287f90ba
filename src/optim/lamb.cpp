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
    PF_CHECK(p->g.same_shape(p->w) && m.same_shape(p->w) &&
             v.same_shape(p->w))
        << p->name << ": gradient or moments differ from the weight's shape";
    Matrix update(p->w.rows(), p->w.cols());
    // All five share one shape, so the flat index visits the elements in
    // the row-major order of a (row, column) loop.
    const std::size_t n = p->w.size();
    const double* g = p->g.data();
    double* md = m.data();
    double* vd = v.data();
    double* ud = update.data();
    double* w = p->w.data();
    for (std::size_t i = 0; i < n; ++i) {
      md[i] = beta1_ * md[i] + (1.0 - beta1_) * g[i];
      vd[i] = beta2_ * vd[i] + (1.0 - beta2_) * g[i] * g[i];
      const double mhat = md[i] / bc1;
      const double vhat = vd[i] / bc2;
      ud[i] = mhat / (std::sqrt(vhat) + eps_) + weight_decay_ * w[i];
    }
    const double wnorm = p->w.frobenius_norm();
    const double unorm = update.frobenius_norm();
    double trust = 1.0;
    if (wnorm > 0.0 && unorm > 0.0)
      trust = std::min(wnorm / unorm, max_trust_);
    for (std::size_t i = 0; i < n; ++i) w[i] -= lr * trust * ud[i];
  }
}

}  // namespace pf
