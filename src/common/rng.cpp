#include "src/common/rng.h"

#include <cmath>

#include "src/common/check.h"

namespace pf {

namespace {
std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}
}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next_u64() {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53-bit mantissa → [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::uniform_int(std::uint64_t n) {
  PF_CHECK(n > 0);
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % n);
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return v % n;
}

double Rng::normal() {
  if (have_cached_normal_) {
    have_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 1e-300) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_normal_ = r * std::sin(theta);
  have_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) {
  PF_CHECK(stddev >= 0.0);
  return mean + stddev * normal();
}

std::size_t Rng::categorical(const std::vector<double>& weights) {
  PF_CHECK(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    PF_CHECK(w >= 0.0) << "negative weight " << w;
    total += w;
  }
  PF_CHECK(total > 0.0) << "all weights zero";
  double r = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    r -= weights[i];
    if (r < 0.0) return i;
  }
  return weights.size() - 1;
}

bool Rng::bernoulli(double p) {
  PF_CHECK(p >= 0.0 && p <= 1.0) << "p=" << p;
  return uniform() < p;
}

}  // namespace pf
