// Deterministic random-number utilities.
//
// Every random entity in a simulation (each process's local coin, the link
// scheduler, the topology generator, ...) gets its own independent stream
// derived from a single master seed via SplitMix64.  This gives bit-exact
// reproducibility for a given master seed while keeping streams statistically
// independent -- which the paper's model requires (processes use *local*
// randomness; the oblivious scheduler's choices are fixed up front).
#pragma once

#include <cstdint>
#include <random>

#include "util/assert.h"

namespace dg {

/// SplitMix64 step: maps any 64-bit value to a well-mixed 64-bit value.
/// Used both as a stand-alone mixer and to seed mt19937_64 streams.
constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Derive a child seed from a parent seed and a stream index.
/// Distinct (seed, stream) pairs give (practically) independent streams.
constexpr std::uint64_t derive_seed(std::uint64_t seed,
                                    std::uint64_t stream) noexcept {
  return splitmix64(seed ^ splitmix64(stream + 0x632be59bd9b4e019ULL));
}

/// A process-local random stream.  Thin wrapper over mt19937_64 with the
/// handful of draw shapes the algorithms need.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : engine_(splitmix64(seed)) {}
  Rng(std::uint64_t seed, std::uint64_t stream)
      : engine_(derive_seed(seed, stream)) {}

  /// Bernoulli draw: true with probability p (clamped to [0,1]).
  bool chance(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_) < p;
  }

  /// Uniform integer in [0, bound).  bound must be positive.
  std::uint64_t below(std::uint64_t bound) {
    DG_EXPECTS(bound > 0);
    return std::uniform_int_distribution<std::uint64_t>(0, bound - 1)(engine_);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) {
    DG_EXPECTS(lo <= hi);
    return std::uniform_int_distribution<std::uint64_t>(lo, hi)(engine_);
  }

  /// Uniform real in [0, 1).
  double uniform() {
    return std::uniform_real_distribution<double>(0.0, 1.0)(engine_);
  }

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(engine_);
  }

  /// Raw 64 uniform bits.
  std::uint64_t bits() { return engine_(); }

 private:
  std::mt19937_64 engine_;
};

}  // namespace dg
