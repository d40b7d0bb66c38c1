// SeedBits: a deterministic stream of uniform bits expanded from a 64-bit
// seed value.
//
// The paper's seed domain is S_kappa = {0,1}^kappa: each seed-agreement
// participant draws a uniform kappa-bit string and ships it in messages.  In
// the simulator we ship a 64-bit seed value instead and expand it to bits on
// demand with a SplitMix64-based PRG.  Two nodes holding the same seed value
// read byte-identical bit streams (which is all the shared-randomness
// argument of LBAlg needs), and distinct owners hold independent uniform
// values (which is what the Independence property of the Seed spec needs).
// docs/PAPER_MAP.md documents this substitution; tests/util_test.cpp checks
// uniformity and cross-seed independence statistically.
#pragma once

#include <cstdint>

#include "util/assert.h"
#include "util/rng.h"

namespace dg {

/// Deterministic bit stream keyed by a 64-bit seed value.
///
/// Bits are indexed from 0; `take(k)` returns the next k bits as the integer
/// whose most-significant bit is the first bit consumed (so a group of nodes
/// calling take() in lockstep derive identical values).  Cursor-based, cheap
/// to copy.
class SeedBits {
 public:
  explicit SeedBits(std::uint64_t seed_value) : seed_value_(seed_value) {}

  std::uint64_t seed_value() const noexcept { return seed_value_; }
  std::uint64_t cursor() const noexcept { return cursor_; }

  /// Returns bit number `index` of the expanded stream (0 or 1).
  int bit_at(std::uint64_t index) const noexcept {
    const std::uint64_t word = splitmix64(seed_value_ ^ splitmix64(index / 64));
    return static_cast<int>((word >> (index % 64)) & 1U);
  }

  /// Consumes the next k bits (k in [0, 64]) and returns them as an integer.
  std::uint64_t take(int k) {
    DG_EXPECTS(k >= 0 && k <= 64);
    if (k == 0) return 0;
    // window() holds the first bit consumed in bit 0; take() wants it in
    // bit k-1.
    return reverse_bits(window(k)) >> (64 - k);
  }

  /// True iff the next k bits are all zero; consumes them.
  /// (LBAlg's participant rule: "if all of these bits are 0".)
  bool take_all_zero(int k) {
    DG_EXPECTS(k >= 0 && k <= 64);
    return k == 0 || window(k) == 0;
  }

  /// Repositions the cursor (used to align all group members at a round
  /// boundary regardless of how many bits each consumed earlier).
  void seek(std::uint64_t bit_index) noexcept { cursor_ = bit_index; }

 private:
  /// Word `index` of the expanded stream: bit_at(64 * index + i) is its
  /// bit i.  The last word read is cached, so a run of short takes costs
  /// one expansion per 64 bits.
  std::uint64_t word(std::uint64_t index) noexcept {
    if (index != cached_index_) {
      cached_index_ = index;
      cached_word_ = splitmix64(seed_value_ ^ splitmix64(index));
    }
    return cached_word_;
  }

  /// Consumes the next k bits (k in [1, 64]), first bit in bit 0.
  std::uint64_t window(int k) noexcept {
    const std::uint64_t index = cursor_ / 64;
    const auto offset = static_cast<int>(cursor_ % 64);
    cursor_ += static_cast<std::uint64_t>(k);
    std::uint64_t bits = word(index) >> offset;
    if (offset + k > 64) bits |= word(index + 1) << (64 - offset);
    return k == 64 ? bits : bits & ((std::uint64_t{1} << k) - 1);
  }

  static constexpr std::uint64_t reverse_bits(std::uint64_t x) noexcept {
    constexpr std::uint64_t kMasks[] = {
        0x5555555555555555ULL, 0x3333333333333333ULL, 0x0f0f0f0f0f0f0f0fULL,
        0x00ff00ff00ff00ffULL, 0x0000ffff0000ffffULL};
    int shift = 1;
    for (const std::uint64_t m : kMasks) {
      x = ((x >> shift) & m) | ((x & m) << shift);
      shift *= 2;
    }
    return (x >> 32) | (x << 32);
  }

  std::uint64_t seed_value_;
  std::uint64_t cursor_ = 0;
  /// No word index reaches 2^58, so this never matches before a read.
  std::uint64_t cached_index_ = ~std::uint64_t{0};
  std::uint64_t cached_word_ = 0;
};

}  // namespace dg
