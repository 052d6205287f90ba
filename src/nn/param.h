// Trainable parameter: value + gradient accumulator, shared by all layers
// and consumed by the optimizers.
#pragma once

#include <string>
#include <vector>

#include "src/linalg/matrix.h"

namespace pf {

struct Param {
  Param(std::size_t rows, std::size_t cols, std::string n)
      : w(rows, cols), g(rows, cols), name(std::move(n)) {}

  Matrix w;  // value
  Matrix g;  // gradient (accumulated by backward passes)
  std::string name;

  void zero_grad() { g.fill(0.0); }
  std::size_t size() const { return w.size(); }
};

// Zeroes the gradients of a parameter set.
inline void zero_grads(const std::vector<Param*>& params) {
  for (Param* p : params) p->zero_grad();
}

}  // namespace pf
