#include "tests/support/grad_check.h"

#include <algorithm>
#include <cmath>

#include "src/common/rng.h"

namespace pf {

double max_grad_check_error(
    const std::vector<Param*>& params,
    const std::function<double(const ExecContext&)>& loss_fn,
    const ExecContext& ctx, std::size_t samples, double eps,
    std::uint64_t seed, double denom_floor) {
  Rng rng(seed);
  double worst = 0.0;
  for (Param* p : params) {
    const std::size_t n = p->size();
    const std::size_t count = std::min(samples, n);
    for (std::size_t s = 0; s < count; ++s) {
      const std::size_t idx = rng.uniform_int(n);
      const std::size_t r = idx / p->w.cols();
      const std::size_t c = idx % p->w.cols();
      const double orig = p->w(r, c);
      p->w(r, c) = orig + eps;
      const double up = loss_fn(ctx);
      p->w(r, c) = orig - eps;
      const double down = loss_fn(ctx);
      p->w(r, c) = orig;
      const double numeric = (up - down) / (2.0 * eps);
      const double analytic = p->g(r, c);
      const double denom =
          std::max({std::abs(numeric), std::abs(analytic), denom_floor});
      worst = std::max(worst, std::abs(numeric - analytic) / denom);
    }
  }
  return worst;
}

double max_grad_check_error(const std::vector<Param*>& params,
                            const std::function<double()>& loss_fn,
                            std::size_t samples, double eps,
                            std::uint64_t seed, double denom_floor) {
  return max_grad_check_error(
      params, [&](const ExecContext&) { return loss_fn(); },
      ExecContext(), samples, eps, seed, denom_floor);
}

}  // namespace pf
