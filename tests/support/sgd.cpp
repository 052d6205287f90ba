#include "tests/support/sgd.h"

namespace pf {

void Sgd::step(const std::vector<Param*>& params, double lr) {
  for (Param* p : params)
    for (std::size_t i = 0; i < p->w.rows(); ++i)
      for (std::size_t j = 0; j < p->w.cols(); ++j)
        p->w(i, j) -= lr * p->g(i, j);
}

}  // namespace pf
