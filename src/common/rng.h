// Deterministic, seedable random number generation.
//
// A thin xoshiro256** implementation so results are reproducible across
// standard libraries (std::mt19937 distributions are not portable).
#pragma once

#include <cstdint>
#include <vector>

namespace pf {

// Deterministic PRNG with convenience distributions.
// The same seed always produces the same stream on every platform.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL);

  // Next raw 64-bit value.
  std::uint64_t next_u64();

  // Uniform double in [0, 1).
  double uniform();

  // Uniform integer in [0, n). Requires n > 0.
  std::uint64_t uniform_int(std::uint64_t n);

  // Standard normal via Box-Muller (cached pair).
  double normal();

  // Normal with mean/stddev.
  double normal(double mean, double stddev);

  // Sample an index from unnormalized weights (linear scan).
  std::size_t categorical(const std::vector<double>& weights);

  // Bernoulli with probability p of true.
  bool bernoulli(double p);

 private:
  std::uint64_t s_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace pf
