#include "util/rng.hpp"

#include <algorithm>
#include <cmath>

namespace tacc::util {

std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  state += 0x9E3779B97F4A7C15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& word : s_) word = splitmix64(sm);
}

void Xoshiro256::long_jump() noexcept {
  static constexpr std::array<std::uint64_t, 4> kJump = {
      0x76e15d3efefdcbbfULL, 0xc5004e441c522fb3ULL, 0x77710069854ee241ULL,
      0x39109bb02acbe635ULL};
  std::array<std::uint64_t, 4> acc{};
  for (std::uint64_t jump : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if (jump & (std::uint64_t{1} << bit)) {
        for (std::size_t w = 0; w < 4; ++w) acc[w] ^= s_[w];
      }
      (void)next();
    }
  }
  s_ = acc;
}

Rng Rng::fork(std::uint64_t stream) const noexcept {
  // Mix the stream label into the seed, then decorrelate with a long jump.
  std::uint64_t mix = seed_ ^ (stream * 0xD1342543DE82EF95ULL + 0x632BE59BD9B4E019ULL);
  std::uint64_t sm = mix;
  Rng child(splitmix64(sm));
  child.engine_.long_jump();
  return child;
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) noexcept {
  if (lo >= hi) return lo;
  const auto span =
      static_cast<std::uint64_t>(hi - lo) + 1;  // hi-lo < 2^63, safe
  return lo + static_cast<std::int64_t>(next_below(span));
}

double Rng::uniform(double lo, double hi) noexcept {
  return lo + (hi - lo) * uniform();
}

bool Rng::bernoulli(double p) noexcept { return uniform() < p; }

double Rng::normal() noexcept {
  if (has_spare_normal_) {
    has_spare_normal_ = false;
    return spare_normal_;
  }
  double u = 0.0, v = 0.0, s = 0.0;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_normal_ = true;
  return u * factor;
}

double Rng::normal(double mean, double stddev) noexcept {
  return mean + stddev * normal();
}

double Rng::exponential(double rate) noexcept {
  // 1 - uniform() is in (0, 1], so the log is finite.
  return -std::log(1.0 - uniform()) / rate;
}

std::uint64_t Rng::poisson(double mean) noexcept {
  if (mean <= 0.0) return 0;
  if (mean < 64.0) {
    const double limit = std::exp(-mean);
    std::uint64_t count = 0;
    double product = uniform();
    while (product > limit) {
      ++count;
      product *= uniform();
    }
    return count;
  }
  // Normal approximation with continuity correction for large means.
  const double draw = normal(mean, std::sqrt(mean));
  return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
}

std::size_t Rng::zipf(std::size_t n, double s) noexcept {
  if (n <= 1) return 1;
  if (zipf_n_ != n || zipf_s_ != s) {
    zipf_cdf_.resize(n);
    double total = 0.0;
    for (std::size_t k = 1; k <= n; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k), s);
      zipf_cdf_[k - 1] = total;
    }
    for (auto& c : zipf_cdf_) c /= total;
    zipf_n_ = n;
    zipf_s_ = s;
  }
  const double u = uniform();
  const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
  return static_cast<std::size_t>(it - zipf_cdf_.begin()) + 1;
}

}  // namespace tacc::util
