// Unit tests for src/util: RNG streams, seed-bit expansion, integer math,
// word-packed bitmaps, Wilson intervals, and table formatting.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/bitmap.h"
#include "util/bits.h"
#include "util/interval.h"
#include "util/intmath.h"
#include "util/rng.h"
#include "util/table.h"

namespace dg {
namespace {

// ---- splitmix / derive_seed ----

TEST(SplitMix, IsDeterministic) {
  EXPECT_EQ(splitmix64(12345), splitmix64(12345));
  EXPECT_NE(splitmix64(12345), splitmix64(12346));
}

TEST(SplitMix, DeriveSeedSeparatesStreams) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t s = 0; s < 64; ++s) {
    seeds.insert(derive_seed(7, s));
  }
  EXPECT_EQ(seeds.size(), 64u);
}

// ---- Rng ----

TEST(Rng, SameSeedSameSequence) {
  Rng a(99), b(99);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.bits(), b.bits());
  }
}

TEST(Rng, DifferentStreamsDiffer) {
  Rng a(99, 1), b(99, 2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.bits() == b.bits()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, ChanceExtremes) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
    EXPECT_FALSE(rng.chance(-0.5));
    EXPECT_TRUE(rng.chance(2.0));
  }
}

TEST(Rng, ChanceFrequencyNearP) {
  Rng rng(2);
  const int n = 20000;
  int hits = 0;
  for (int i = 0; i < n; ++i) {
    if (rng.chance(0.25)) ++hits;
  }
  const double freq = static_cast<double>(hits) / n;
  EXPECT_NEAR(freq, 0.25, 0.02);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(3);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.below(7);
    EXPECT_LT(v, 7u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(Rng, BetweenInclusive) {
  Rng rng(4);
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.between(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
  }
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

// ---- Rng: distribution and independence (fixed seeds) ----

/// Pearson's chi-square of `counts` against equal expected counts.
double chi_square(const std::vector<std::uint64_t>& counts) {
  double total = 0;
  for (const auto c : counts) total += static_cast<double>(c);
  const double expected = total / static_cast<double>(counts.size());
  double chi2 = 0;
  for (const auto c : counts) {
    const double d = static_cast<double>(c) - expected;
    chi2 += d * d / expected;
  }
  return chi2;
}

/// Two-sided chi-square check at ~5 sigma (Wilson-Hilferty quantiles): a
/// sample that is too uniform (a counter showing through) fails as surely
/// as a skewed one.
void expect_uniform_counts(const std::vector<std::uint64_t>& counts,
                           const std::string& what) {
  const double df = static_cast<double>(counts.size() - 1);
  const auto quantile = [df](double z) {
    const double a = 2.0 / (9.0 * df);
    return df * std::pow(1.0 - a + z * std::sqrt(a), 3);
  };
  const double chi2 = chi_square(counts);
  EXPECT_LT(chi2, quantile(5.0)) << what << ": df " << df;
  EXPECT_GT(chi2, quantile(-5.0)) << what << ": df " << df;
}

TEST(RngLaw, BitsAreUniformInHighAndLowBytes) {
  Rng rng(0x5eed, 1);
  std::vector<std::uint64_t> high(256), low(256);
  for (int i = 0; i < 256 * 400; ++i) {
    const auto x = rng.bits();
    ++high[x >> 56];
    ++low[x & 0xff];
  }
  expect_uniform_counts(high, "bits() >> 56");
  expect_uniform_counts(low, "bits() & 0xff");
}

TEST(RngLaw, BelowIsUniform) {
  Rng rng(0x5eed, 2);
  const int draws = 64000;
  {
    std::vector<std::uint64_t> counts(16);
    for (int i = 0; i < draws; ++i) ++counts[rng.below(16)];
    expect_uniform_counts(counts, "below(16)");
  }
  {
    std::vector<std::uint64_t> counts(3);
    for (int i = 0; i < draws; ++i) ++counts[rng.below(3)];
    expect_uniform_counts(counts, "below(3)");
  }
  {
    // 2^63 + 1: nearly half of all 64-bit draws are rejected by an exact
    // method; a 53-bit float scaling would leave the low bits constant.
    const std::uint64_t bound = (std::uint64_t{1} << 63) + 1;
    std::vector<std::uint64_t> top(16), bottom(16);
    for (int i = 0; i < draws; ++i) {
      const auto v = rng.below(bound);
      ASSERT_LT(v, bound);
      ++top[std::min<std::uint64_t>(v >> 59, 15)];
      ++bottom[v & 15];
    }
    expect_uniform_counts(top, "below(2^63+1) >> 59");
    expect_uniform_counts(bottom, "below(2^63+1) & 15");
  }
}

TEST(RngLaw, UniformIsUniform) {
  Rng rng(0x5eed, 3);
  std::vector<std::uint64_t> counts(64);
  for (int i = 0; i < 64 * 1000; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    ++counts[static_cast<std::size_t>(u * 64.0)];
  }
  expect_uniform_counts(counts, "uniform()");
}

/// Correlation of paired uniforms plus the bit agreement of paired raw
/// draws: Pearson r within 5/sqrt(M), and XOR popcounts within 5 sigma of
/// the 32 bits per pair that independent draws disagree in.
void expect_uncorrelated(const std::vector<std::uint64_t>& a,
                         const std::vector<std::uint64_t>& b,
                         const std::string& what) {
  ASSERT_EQ(a.size(), b.size());
  const auto m = static_cast<double>(a.size());
  const auto unit = [](std::uint64_t x) {
    return static_cast<double>(x >> 11) * 0x1p-53 - 0.5;
  };
  double sab = 0, saa = 0, sbb = 0, sa = 0, sb = 0, differing = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double x = unit(a[i]), y = unit(b[i]);
    sa += x;
    sb += y;
    sab += x * y;
    saa += x * x;
    sbb += y * y;
    differing += std::popcount(a[i] ^ b[i]);
  }
  const double cov = sab / m - (sa / m) * (sb / m);
  const double r = cov / std::sqrt((saa / m - (sa / m) * (sa / m)) *
                                   (sbb / m - (sb / m) * (sb / m)));
  EXPECT_LT(std::abs(r), 5.0 / std::sqrt(m)) << what << ": r = " << r;
  const double z = (differing - 32.0 * m) / std::sqrt(16.0 * m);
  EXPECT_LT(std::abs(z), 5.0) << what << ": bit-agreement z = " << z;
}

TEST(RngLaw, AdjacentStreamsAreUncorrelated) {
  // The engine's per-vertex coins are streams v and v + 1 of one seed.
  std::vector<std::uint64_t> a, b;
  for (std::uint64_t v = 0; v < 2000; ++v) {
    Rng left(0x5eed, v), right(0x5eed, v + 1);
    for (int i = 0; i < 16; ++i) {
      a.push_back(left.bits());
      b.push_back(right.bits());
    }
  }
  expect_uncorrelated(a, b, "streams v, v+1");
}

TEST(RngLaw, AdjacentDrawsAreUncorrelated) {
  Rng rng(0x5eed, 4);
  std::vector<std::uint64_t> a, b;
  std::uint64_t previous = rng.bits();
  for (int i = 0; i < 32000; ++i) {
    const std::uint64_t next = rng.bits();
    a.push_back(previous);
    b.push_back(next);
    previous = next;
  }
  expect_uncorrelated(a, b, "draws c, c+1");
}

TEST(RngLaw, ChanceIsOneIntegerCompare) {
  // chance(p) == (bits() < ceil(p * 2^64)) draw for draw, down to p = 2^-60
  // (a 53-bit uniform would round it to 0 or lose its scale).
  const double ps[] = {0.5, 0.25, 1.0 / 3.0, 0.1, 1e-3, 0x1p-60,
                       1.0 - 0x1p-53};
  for (const double p : ps) {
    Rng rng(0x5eed, 5);
    Rng copy = rng;
    const auto threshold =
        static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 64)));
    for (int i = 0; i < 5000; ++i) {
      ASSERT_EQ(rng.chance(p), copy.bits() < threshold) << "p " << p;
    }
  }
}

TEST(RngLaw, BetweenCoversTheFullRange) {
  Rng rng(0x5eed, 6);
  Rng copy = rng;
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.between(0, UINT64_MAX), copy.bits());
  }
  EXPECT_EQ(rng.between(UINT64_MAX, UINT64_MAX), UINT64_MAX);
  std::set<std::uint64_t> top;
  for (int i = 0; i < 200; ++i) {
    top.insert(rng.between(UINT64_MAX - 1, UINT64_MAX));
  }
  EXPECT_EQ(top, (std::set<std::uint64_t>{UINT64_MAX - 1, UINT64_MAX}));
  for (int i = 0; i < 1000; ++i) EXPECT_GE(rng.between(1, UINT64_MAX), 1u);
}

TEST(RngLaw, CopyReplaysTheStream) {
  Rng rng(0x5eed, 7);
  for (int i = 0; i < 10; ++i) rng.bits();
  Rng copy = rng;
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(rng.bits(), copy.bits());
    EXPECT_EQ(rng.chance(0.3), copy.chance(0.3));
    EXPECT_EQ(rng.below(1000), copy.below(1000));
    EXPECT_EQ(rng.uniform(), copy.uniform());
  }
}

// ---- SeedBits ----

TEST(SeedBits, SameSeedSameStream) {
  SeedBits a(42), b(42);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.take(3), b.take(3));
  }
}

TEST(SeedBits, DifferentSeedsDiffer) {
  SeedBits a(42), b(43);
  int diff = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.take(8) != b.take(8)) ++diff;
  }
  EXPECT_GT(diff, 32);
}

TEST(SeedBits, TakeMatchesBitAt) {
  SeedBits s(777);
  std::vector<int> expanded;
  for (std::uint64_t i = 0; i < 64; ++i) {
    expanded.push_back(s.bit_at(i));
  }
  const std::uint64_t v = s.take(64);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ((v >> (63 - i)) & 1, static_cast<std::uint64_t>(expanded[i]));
  }
}

TEST(SeedBits, SeekRealigns) {
  SeedBits a(9), b(9);
  a.take(13);
  a.seek(5);
  b.seek(5);
  EXPECT_EQ(a.take(20), b.take(20));
}

/// The next k bits from `cursor`, first bit most significant, read one
/// bit_at() at a time: the reference for the word-wise take().
std::uint64_t bits_from(const SeedBits& s, std::uint64_t cursor, int k) {
  std::uint64_t v = 0;
  for (int i = 0; i < k; ++i) {
    v = (v << 1) | static_cast<std::uint64_t>(s.bit_at(cursor + i));
  }
  return v;
}

TEST(SeedBits, WordWiseTakesMatchBitAtForEveryWidthAndCursor) {
  // Cursors 0-191 cover three words, every in-word offset and every
  // straddle; each probe seeks back to its cursor, so the cached word is
  // alternately the one before, the one at and the one after it.
  SeedBits s(0xfeedfacecafebeefULL);
  for (std::uint64_t cursor = 0; cursor < 192; ++cursor) {
    for (int k = 0; k <= 64; ++k) {
      const std::uint64_t want = bits_from(s, cursor, k);
      s.seek(cursor);
      ASSERT_EQ(s.take(k), want) << "cursor " << cursor << " k " << k;
      EXPECT_EQ(s.cursor(), cursor + static_cast<std::uint64_t>(k));
      s.seek(cursor);
      ASSERT_EQ(s.take_all_zero(k), want == 0)
          << "cursor " << cursor << " k " << k;
      EXPECT_EQ(s.cursor(), cursor + static_cast<std::uint64_t>(k));
    }
  }
}

TEST(SeedBits, CachedWordSurvivesBackwardSeekAndCopy) {
  // A random walk of takes, all-zero tests and backward seeks, with a copy
  // forked off mid-walk that then runs its own walk: every value must match
  // the bit_at() reference at the walker's own cursor.
  const SeedBits ref(2718281828ULL);
  SeedBits a(ref.seed_value());
  std::optional<SeedBits> b;
  Rng rng(99);
  for (int step = 0; step < 4000; ++step) {
    if (step == 2000) b = a;  // shares a's cursor and cached word
    SeedBits& s = (b.has_value() && step % 2 == 1) ? *b : a;
    const std::uint64_t cursor = s.cursor();
    const auto k = static_cast<int>(rng.below(65));
    switch (rng.below(3)) {
      case 0:
        ASSERT_EQ(s.take(k), bits_from(ref, cursor, k)) << "step " << step;
        break;
      case 1:
        ASSERT_EQ(s.take_all_zero(k), bits_from(ref, cursor, k) == 0)
            << "step " << step;
        break;
      default:
        s.seek(rng.below(cursor + 1));  // backward (or stay)
        break;
    }
  }
}

TEST(SeedBits, TakeZeroBitsIsZero) {
  SeedBits s(1);
  EXPECT_EQ(s.take(0), 0u);
  EXPECT_EQ(s.cursor(), 0u);
}

TEST(SeedBits, AllZeroFrequencyMatchesTwoToMinusK) {
  // Across many seeds, P(take_all_zero(k)) should be close to 2^-k.
  const int k = 3;
  int hits = 0;
  const int n = 8000;
  for (int seed = 0; seed < n; ++seed) {
    SeedBits s(static_cast<std::uint64_t>(seed) * 2654435761u + 17);
    if (s.take_all_zero(k)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, std::ldexp(1.0, -k), 0.02);
}

TEST(SeedBits, BitsAreBalanced) {
  // Bit frequency over a long stream from one seed.
  SeedBits s(123456789);
  int ones = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    ones += static_cast<int>(s.take(1));
  }
  EXPECT_NEAR(static_cast<double>(ones) / n, 0.5, 0.02);
}

// ---- intmath ----

TEST(IntMath, FloorLog2) {
  EXPECT_EQ(floor_log2(1), 0);
  EXPECT_EQ(floor_log2(2), 1);
  EXPECT_EQ(floor_log2(3), 1);
  EXPECT_EQ(floor_log2(4), 2);
  EXPECT_EQ(floor_log2(1023), 9);
  EXPECT_EQ(floor_log2(1024), 10);
}

TEST(IntMath, CeilLog2) {
  EXPECT_EQ(ceil_log2(1), 0);
  EXPECT_EQ(ceil_log2(2), 1);
  EXPECT_EQ(ceil_log2(3), 2);
  EXPECT_EQ(ceil_log2(4), 2);
  EXPECT_EQ(ceil_log2(5), 3);
  EXPECT_EQ(ceil_log2(1024), 10);
  EXPECT_EQ(ceil_log2(1025), 11);
}

TEST(IntMath, Pow2Ceil) {
  EXPECT_EQ(pow2_ceil(1), 1u);
  EXPECT_EQ(pow2_ceil(2), 2u);
  EXPECT_EQ(pow2_ceil(3), 4u);
  EXPECT_EQ(pow2_ceil(17), 32u);
}

TEST(IntMath, Log2Clamped) {
  EXPECT_DOUBLE_EQ(log2_clamped(0.5, 1.0), 1.0);   // below 1 clamps
  EXPECT_DOUBLE_EQ(log2_clamped(1.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(log2_clamped(8.0), 3.0);
  EXPECT_DOUBLE_EQ(log2_clamped(2.0, 2.0), 2.0);   // floor dominates
}

TEST(IntMath, CeilToInt) {
  EXPECT_EQ(ceil_to_int(0.1), 1);
  EXPECT_EQ(ceil_to_int(1.0), 1);
  EXPECT_EQ(ceil_to_int(1.00001), 2);
  EXPECT_EQ(ceil_to_int(-3.5), 1);  // clamped to >= 1
}

TEST(IntMath, RoundUp) {
  EXPECT_EQ(round_up(0, 5), 0);
  EXPECT_EQ(round_up(1, 5), 5);
  EXPECT_EQ(round_up(5, 5), 5);
  EXPECT_EQ(round_up(6, 5), 10);
}

// ---- Wilson intervals ----

TEST(Wilson, ContainsTruthForFairCoin) {
  const auto iv = wilson_interval(500, 1000, 2.58);
  EXPECT_TRUE(iv.contains(0.5));
  EXPECT_LT(iv.width(), 0.1);
}

TEST(Wilson, ExtremesClamp) {
  const auto all = wilson_interval(100, 100);
  EXPECT_LE(all.hi, 1.0);
  EXPECT_GT(all.lo, 0.9);
  const auto none = wilson_interval(0, 100);
  EXPECT_GE(none.lo, 0.0);
  EXPECT_LT(none.hi, 0.1);
}

TEST(Wilson, NarrowsWithTrials) {
  const auto small = wilson_interval(5, 10);
  const auto big = wilson_interval(5000, 10000);
  EXPECT_LT(big.width(), small.width());
}

TEST(BernoulliTally, TracksCounts) {
  BernoulliTally t;
  for (int i = 0; i < 9; ++i) t.record(true);
  t.record(false);
  EXPECT_EQ(t.trials(), 10u);
  EXPECT_EQ(t.successes(), 9u);
  EXPECT_DOUBLE_EQ(t.frequency(), 0.9);
}

TEST(BernoulliTally, ConsistencyCheck) {
  BernoulliTally t;
  for (int i = 0; i < 95; ++i) t.record(true);
  for (int i = 0; i < 5; ++i) t.record(false);
  EXPECT_TRUE(t.consistent_with_at_least(0.9));
  EXPECT_FALSE(t.consistent_with_at_least(0.9999));
  BernoulliTally empty;
  EXPECT_TRUE(empty.consistent_with_at_least(1.0));  // vacuous
}

// ---- Table ----

TEST(Table, RendersAlignedRows) {
  Table t({"name", "value"});
  t.row().cell("alpha").cell(std::int64_t{42});
  t.row().cell("b").cell(3.14159, 2);
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

TEST(Table, CsvOutput) {
  Table t({"a", "b"});
  t.row().cell(1).cell(2);
  std::ostringstream os;
  t.print_csv(os);
  EXPECT_EQ(os.str(), "a,b\n1,2\n");
}

TEST(Table, CellBeyondHeadersAborts) {
  Table t({"only"});
  t.row().cell("x");
  EXPECT_DEATH(t.cell("overflow"), "precondition");
}

// ---- Bitmap ----

TEST(Bitmap, SetTestResetAcrossWordBoundary) {
  Bitmap b(130);
  EXPECT_EQ(b.size(), 130u);
  EXPECT_EQ(b.word_count(), 3u);
  for (std::size_t i : {0u, 63u, 64u, 127u, 128u, 129u}) {
    EXPECT_FALSE(b.test(i));
    b.set(i);
    EXPECT_TRUE(b.test(i));
  }
  EXPECT_EQ(b.count(), 6u);
  b.reset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_EQ(b.count(), 5u);
  b.clear();
  EXPECT_EQ(b.count(), 0u);
}

TEST(Bitmap, SetAllMasksTailBits) {
  for (std::size_t size : {1u, 63u, 64u, 65u, 130u}) {
    Bitmap b(size);
    b.set_all();
    EXPECT_EQ(b.count(), size) << "size " << size;
    for (std::size_t i = 0; i < size; ++i) EXPECT_TRUE(b.test(i));
    // Tail bits beyond size() stay zero so word scans are exact.
    if (size % 64 != 0) {
      EXPECT_EQ(b.words().back() >> (size % 64), 0u);
    }
  }
}

TEST(Bitmap, ForEachSetVisitsInOrder) {
  Bitmap b(200);
  const std::vector<std::size_t> expect = {0, 5, 63, 64, 100, 199};
  for (std::size_t i : expect) b.set(i);
  std::vector<std::size_t> seen;
  b.for_each_set([&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, expect);
}

TEST(Bitmap, WordMaskCoversPartialLastWord) {
  Bitmap b(70);
  EXPECT_EQ(b.word_mask(0), ~0ULL);
  EXPECT_EQ(b.word_mask(1), (1ULL << 6) - 1);
  Bitmap exact(128);
  EXPECT_EQ(exact.word_mask(1), ~0ULL);
}

TEST(Bitmap, EqualityComparesSizeAndBits) {
  Bitmap a(70), b(70), c(71);
  a.set(69);
  EXPECT_FALSE(a == b);
  b.set(69);
  EXPECT_TRUE(a == b);
  EXPECT_FALSE(a == c);
}

}  // namespace
}  // namespace dg
