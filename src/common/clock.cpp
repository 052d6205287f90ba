#include "src/common/clock.h"

#include <chrono>

namespace pf {

double now_seconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace pf
