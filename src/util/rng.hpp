// Deterministic pseudo-random number generation for reproducible experiments.
//
// All randomness in the library flows through tacc::util::Rng, a small
// xoshiro256** engine seeded via splitmix64. std::mt19937 is avoided because
// libstdc++/libc++ distributions are not bit-identical across platforms;
// every distribution here is implemented in-repo so that a (seed, call
// sequence) pair replays exactly anywhere.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

namespace tacc::util {

/// splitmix64 step; used to expand a single 64-bit seed into engine state.
[[nodiscard]] std::uint64_t splitmix64(std::uint64_t& state) noexcept;

/// xoshiro256** 1.0 engine with explicit, copyable state.
class Xoshiro256 {
 public:
  using result_type = std::uint64_t;

  explicit Xoshiro256(std::uint64_t seed) noexcept;

  [[nodiscard]] result_type next() noexcept {
    const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = std::rotl(s_[3], 45);
    return result;
  }

  /// Advances the engine 2^128 steps; yields a stream independent from the
  /// parent for practical purposes. Used to derive per-component streams.
  void long_jump() noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept { return ~result_type{0}; }
  result_type operator()() noexcept { return next(); }

 private:
  std::array<std::uint64_t, 4> s_{};
};

/// Convenience facade bundling an engine with the distributions the library
/// needs. Cheap to copy; copies evolve independently.
class Rng {
 public:
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept
      : engine_(seed), seed_(seed) {}

  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }

  /// A new Rng with an independent stream, labeled by `stream`. Deriving the
  /// same (seed, stream) always yields the same child.
  [[nodiscard]] Rng fork(std::uint64_t stream) const noexcept;

  /// Uniform in [0, bound) without modulo bias (Lemire's method). bound
  /// must be > 0.
  [[nodiscard]] std::uint64_t next_below(std::uint64_t bound) noexcept {
    std::uint64_t x = engine_.next();
    __uint128_t m = static_cast<__uint128_t>(x) * bound;
    auto low = static_cast<std::uint64_t>(m);
    if (low < bound) {
      const std::uint64_t threshold = (0 - bound) % bound;
      while (low < threshold) {
        x = engine_.next();
        m = static_cast<__uint128_t>(x) * bound;
        low = static_cast<std::uint64_t>(m);
      }
    }
    return static_cast<std::uint64_t>(m >> 64);
  }

  /// Uniform integer in the closed range [lo, hi].
  [[nodiscard]] std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform index in [0, size); size must be > 0.
  [[nodiscard]] std::size_t index(std::size_t size) noexcept {
    return static_cast<std::size_t>(next_below(size));
  }

  /// Uniform double in [0, 1).
  [[nodiscard]] double uniform() noexcept {
    return static_cast<double>(engine_.next() >> 11) * 0x1.0p-53;
  }

  /// Uniform double in [lo, hi).
  [[nodiscard]] double uniform(double lo, double hi) noexcept;

  /// True with probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// Standard normal via Marsaglia polar method.
  [[nodiscard]] double normal() noexcept;
  [[nodiscard]] double normal(double mean, double stddev) noexcept;

  /// Exponential with the given rate (mean 1/rate). rate must be > 0.
  [[nodiscard]] double exponential(double rate) noexcept;

  /// Poisson-distributed count (Knuth for small mean, normal approx above 64).
  [[nodiscard]] std::uint64_t poisson(double mean) noexcept;

  /// Zipf-distributed rank in [1, n] with exponent s >= 0 (s=0 is uniform).
  /// O(log n) per draw after an O(n) table build on first use per (n, s).
  [[nodiscard]] std::size_t zipf(std::size_t n, double s) noexcept;

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::span<T> values) noexcept {
    for (std::size_t i = values.size(); i > 1; --i) {
      std::swap(values[i - 1], values[index(i)]);
    }
  }

  template <typename T>
  void shuffle(std::vector<T>& values) noexcept {
    shuffle(std::span<T>(values));
  }

  /// Uniformly chosen element; span must be non-empty.
  template <typename T>
  [[nodiscard]] const T& pick(std::span<const T> values) noexcept {
    return values[index(values.size())];
  }

 private:
  Xoshiro256 engine_;
  std::uint64_t seed_;
  // Cached Zipf CDF for the last (n, s) requested; rebuilt on change.
  std::vector<double> zipf_cdf_;
  std::size_t zipf_n_ = 0;
  double zipf_s_ = -1.0;
  // Spare normal from the polar method.
  double spare_normal_ = 0.0;
  bool has_spare_normal_ = false;
};

}  // namespace tacc::util
