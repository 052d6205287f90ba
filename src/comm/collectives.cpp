#include "src/comm/collectives.h"

#include <algorithm>
#include <cmath>

#include "src/common/check.h"

namespace pf {

namespace {
double log2_ceil(std::size_t w) {
  return std::ceil(std::log2(static_cast<double>(w)));
}
}  // namespace

double ring_allreduce_time(const LinkModel& link, double bytes,
                           std::size_t world) {
  PF_CHECK(bytes >= 0.0 && world >= 1);
  if (world == 1) return 0.0;
  const double w = static_cast<double>(world);
  // Reduce-scatter + allgather: each phase moves (w-1)/w of the data in
  // w-1 latency-bound rounds.
  return 2.0 * (w - 1.0) / w * bytes / link.bandwidth +
         2.0 * (w - 1.0) * link.latency;
}

double recursive_doubling_allreduce_time(const LinkModel& link, double bytes,
                                         std::size_t world) {
  PF_CHECK(bytes >= 0.0 && world >= 1);
  if (world == 1) return 0.0;
  const double rounds = log2_ceil(world);
  // Halving-doubling: ~2·n/β of traffic total, 2·log2(w) rounds.
  return 2.0 * bytes / link.bandwidth + 2.0 * rounds * link.latency;
}

double allreduce_best_time(const LinkModel& link, double bytes,
                           std::size_t world) {
  return std::min(ring_allreduce_time(link, bytes, world),
                  recursive_doubling_allreduce_time(link, bytes, world));
}

double ring_allgather_time(const LinkModel& link, double bytes,
                           std::size_t world) {
  PF_CHECK(bytes >= 0.0 && world >= 1);
  if (world == 1) return 0.0;
  const double w = static_cast<double>(world);
  return (w - 1.0) / w * bytes / link.bandwidth +
         (w - 1.0) * link.latency;
}

double p2p_time(const LinkModel& link, double bytes) {
  PF_CHECK(bytes >= 0.0);
  return link.latency + bytes / link.bandwidth;
}

}  // namespace pf
