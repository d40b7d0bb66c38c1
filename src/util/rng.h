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

#include "util/assert.h"

namespace dg {

/// SplitMix64 step: maps any 64-bit value to a well-mixed 64-bit value.
/// Used both as a stand-alone mixer and as Rng's output function.
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

/// A process-local random stream with the handful of draw shapes the
/// algorithms need.  Counter-based: the state is a stream key and a draw
/// counter (16 bytes, one per vertex in the engine), and draw number c is
/// splitmix64(key ^ splitmix64(c)), so distinct keys give independent
/// streams and a copy replays its source's draws.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : key_(splitmix64(seed)) {}
  Rng(std::uint64_t seed, std::uint64_t stream)
      : key_(derive_seed(seed, stream)) {}

  /// Bernoulli draw: true with probability p (clamped to [0,1]; NaN is
  /// false).  One exact integer compare, bits() < ceil(p * 2^64), so even
  /// p = 2^-64 keeps its probability.  p <= 0 and p >= 1 draw nothing.
  bool chance(double p) {
    if (!(p > 0.0)) return false;
    if (p >= 1.0) return true;
    const double scaled = p * 0x1p64;  // exact, and below 2^64
    auto threshold = static_cast<std::uint64_t>(scaled);
    // The floor is exact as a double (it is scaled itself from 2^53 up).
    if (static_cast<double>(threshold) < scaled) ++threshold;
    return bits() < threshold;
  }

  /// Uniform integer in [0, bound).  bound must be positive.  Lemire's
  /// multiply-shift, rejecting the low products that would bias it.
  std::uint64_t below(std::uint64_t bound) {
    DG_EXPECTS(bound > 0);
    Wide product = Wide{bits()} * bound;
    if (static_cast<std::uint64_t>(product) < bound) {
      const std::uint64_t reject = (0 - bound) % bound;  // 2^64 mod bound
      while (static_cast<std::uint64_t>(product) < reject) {
        product = Wide{bits()} * bound;
      }
    }
    return static_cast<std::uint64_t>(product >> 64);
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::uint64_t between(std::uint64_t lo, std::uint64_t hi) {
    DG_EXPECTS(lo <= hi);
    const std::uint64_t span = hi - lo;
    return span == UINT64_MAX ? bits() : lo + below(span + 1);
  }

  /// Uniform real in [0, 1): the top 53 bits of one draw.
  double uniform() { return static_cast<double>(bits() >> 11) * 0x1p-53; }

  /// Uniform real in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Raw 64 uniform bits.
  std::uint64_t bits() { return splitmix64(key_ ^ splitmix64(counter_++)); }

 private:
  using Wide = unsigned __int128;

  std::uint64_t key_;
  std::uint64_t counter_ = 0;
};

static_assert(sizeof(Rng) == 16);

}  // namespace dg
