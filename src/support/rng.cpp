#include "support/rng.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "support/bitset.hpp"

namespace rrsn {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  std::uint64_t sm = seed;
  for (auto& s : s_) s = splitmix64(sm);
}

std::uint64_t Rng::next() {
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

std::uint64_t Rng::below(std::uint64_t bound) {
  RRSN_CHECK(bound > 0, "Rng::below requires a positive bound");
  // Lemire's method: multiply-shift with rejection of the biased zone.
  std::uint64_t x = next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = next();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::range(std::int64_t lo, std::int64_t hi) {
  RRSN_CHECK(lo <= hi, "Rng::range requires lo <= hi");
  const auto span =
      static_cast<std::uint64_t>(hi) - static_cast<std::uint64_t>(lo) + 1;
  if (span == 0) return static_cast<std::int64_t>(next());  // full 64-bit span
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::uniform() {
  return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

bool Rng::chance(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform() < p;
}

std::uint64_t Rng::binomial(std::uint64_t n, double p) {
  if (n == 0 || p <= 0.0) return 0;
  if (p >= 1.0) return n;
  if (n <= 64) {
    std::uint64_t hits = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
      if (chance(p)) ++hits;
    }
    return hits;
  }
  // Normal approximation with continuity correction, clamped to [0, n].
  // Adequate for the EA's mutation-count sampling where n*p >> 1; exact
  // per-bit behaviour is not required, only the right distribution shape.
  const double mean = static_cast<double>(n) * p;
  const double sd = std::sqrt(mean * (1.0 - p));
  // Box–Muller using two uniforms from this generator.
  const double u1 = std::max(uniform(), 0x1.0p-60);
  const double u2 = uniform();
  const double z =
      std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  double draw = std::round(mean + sd * z);
  if (draw < 0.0) draw = 0.0;
  if (draw > static_cast<double>(n)) draw = static_cast<double>(n);
  return static_cast<std::uint64_t>(draw);
}

std::vector<std::size_t> Rng::sampleIndices(std::size_t n, std::size_t k) {
  RRSN_CHECK(k <= n, "cannot sample more indices than available");
  // Floyd's algorithm: O(k) draws, each landing in a growing set.  The
  // membership container is an implementation detail — the draws are
  // below(j + 1) for j in [n - k, n) either way — so dense samples use
  // a bit array (no node allocations) and sparse ones a tree set.
  if (k >= n / 256) {
    DynamicBitset chosen;
    sampleIndicesInto(n, k, chosen);
    return chosen.toIndices();
  }
  std::set<std::size_t> chosen;
  for (std::size_t j = n - k; j < n; ++j) {
    std::size_t t = static_cast<std::size_t>(below(j + 1));
    if (!chosen.insert(t).second) chosen.insert(j);
  }
  return {chosen.begin(), chosen.end()};
}

void Rng::sampleIndicesInto(std::size_t n, std::size_t k, DynamicBitset& out) {
  RRSN_CHECK(k <= n, "cannot sample more indices than available");
  out = DynamicBitset(n);
  for (std::size_t j = n - k; j < n; ++j) {
    const auto t = static_cast<std::size_t>(below(j + 1));
    if (out.test(t))
      out.set(j);
    else
      out.set(t);
  }
}

}  // namespace rrsn
