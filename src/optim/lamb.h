// LAMB (You et al., 2020) — the paper's NVLAMB baseline optimizer.
//
// Adam-style moments plus a per-tensor trust ratio
//   trust = ||w|| / ||m̂/(√v̂+ε) + wd·w||   (clamped)
// that rescales the update, enabling the 8K-64K batch training of BERT.
#pragma once

#include "src/optim/optimizer.h"

namespace pf {

class Lamb : public Optimizer {
 public:
  Lamb(double beta1 = 0.9, double beta2 = 0.999, double eps = 1e-6,
       double weight_decay = 0.01, double max_trust = 10.0);
  void step(const std::vector<Param*>& params, double lr) override;

 private:
  double beta1_, beta2_, eps_, weight_decay_, max_trust_;
  std::size_t t_ = 0;
  ParamBuffers m_, v_;
};

}  // namespace pf
