// Plain SGD, w -= lr·g: the first-order reference the optimizer tests
// compare LAMB and K-FAC against, and the base test_optim wraps in
// KfacOptimizer.
#pragma once

#include "src/optim/optimizer.h"

namespace pf {

class Sgd : public Optimizer {
 public:
  void step(const std::vector<Param*>& params, double lr) override;
};

}  // namespace pf
