// Analytic collective-communication models (alpha-beta cost model).
//
// The paper's distributed K-FAC variants rely on three collectives:
// sync-grad (allreduce of gradients), sync-curvature (allreduce of
// Kronecker factors), and the allgather of inverses under inversion
// parallelism. This module models their cost for the standard algorithms
// so the simulator can charge realistic times:
//
//   ring allreduce            2(w-1)/w · n/β + 2(w-1)·α
//   recursive halving-doubling  ~2 n/β + 2 log2(w)·α  (w power of two)
//   ring allgather            (w-1)/w · n/β + (w-1)·α
//
// with α = per-message latency and β = link bandwidth. Small messages favor
// recursive doubling (fewer rounds), large ones the ring (bandwidth
// optimal) — allreduce_best() picks the cheaper, which is what NCCL's
// autotuner effectively does.
#pragma once

#include <cstddef>

namespace pf {

struct LinkModel {
  double bandwidth;  // bytes/s per direction
  double latency;    // seconds per message
};

double ring_allreduce_time(const LinkModel& link, double bytes,
                           std::size_t world);
double recursive_doubling_allreduce_time(const LinkModel& link, double bytes,
                                         std::size_t world);
double allreduce_best_time(const LinkModel& link, double bytes,
                           std::size_t world);
double ring_allgather_time(const LinkModel& link, double bytes,
                           std::size_t world);
double p2p_time(const LinkModel& link, double bytes);

}  // namespace pf
