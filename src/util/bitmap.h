// Flat 64-bit-word bitmap.
//
// The round engine's hot structures are sets over dense indices: which
// vertices transmit this round, which unreliable edges the scheduler
// includes.  Both are represented as word-packed bitmaps so membership is a
// one-bit probe and iteration is a countr_zero scan over set words --
// instead of a vector<bool> (bit-proxy churn) or per-element virtual calls.
#pragma once

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "util/assert.h"

namespace dg {

class Bitmap {
 public:
  Bitmap() = default;
  explicit Bitmap(std::size_t size) { resize(size); }

  /// Number of addressable bits (not the word capacity).
  std::size_t size() const noexcept { return size_; }
  std::size_t word_count() const noexcept { return words_.size(); }

  /// Resizes to `size` bits, all cleared.
  void resize(std::size_t size) {
    size_ = size;
    words_.assign((size + 63) / 64, 0);
  }

  void clear() noexcept {
    std::memset(words_.data(), 0, words_.size() * sizeof(std::uint64_t));
  }

  /// Sets every bit in [0, size); tail bits of the last word stay zero so
  /// count() and scans remain exact.
  void set_all() noexcept {
    if (words_.empty()) return;
    std::memset(words_.data(), 0xff, words_.size() * sizeof(std::uint64_t));
    const std::size_t tail = size_ % 64;
    if (tail != 0) words_.back() &= (~0ULL >> (64 - tail));
  }

  void set(std::size_t i) noexcept {
    DG_ASSERT(i < size_);
    words_[i >> 6] |= 1ULL << (i & 63);
  }

  void reset(std::size_t i) noexcept {
    DG_ASSERT(i < size_);
    words_[i >> 6] &= ~(1ULL << (i & 63));
  }

  bool test(std::size_t i) const noexcept {
    DG_ASSERT(i < size_);
    return (words_[i >> 6] >> (i & 63)) & 1U;
  }

  std::size_t count() const noexcept {
    std::size_t c = 0;
    for (std::uint64_t w : words_) c += std::popcount(w);
    return c;
  }

  /// Raw word access for bulk fillers (schedulers write whole words).  The
  /// writer owns the tail-bit invariant: bits at or beyond size() must stay
  /// zero.
  std::span<std::uint64_t> words() noexcept { return words_; }
  std::span<const std::uint64_t> words() const noexcept { return words_; }

  /// Mask covering the valid bits of word `w` (all-ones except a partial
  /// last word).
  std::uint64_t word_mask(std::size_t w) const noexcept {
    DG_ASSERT(w < words_.size());
    const std::size_t tail = size_ % 64;
    if (w + 1 == words_.size() && tail != 0) return ~0ULL >> (64 - tail);
    return ~0ULL;
  }

  /// Copies another bitmap of the same size, word-wise.
  void copy_from(const Bitmap& other) noexcept {
    DG_ASSERT(size_ == other.size_);
    std::memcpy(words_.data(), other.words_.data(),
                words_.size() * sizeof(std::uint64_t));
  }

  /// Rebuilds the whole bitmap from a per-index predicate, accumulating 64
  /// bits in a register before each word store (the bulk-fill skeleton the
  /// schedulers share; keeps the tail-bit invariant by construction).
  template <typename Pred>
  void fill_from(Pred&& pred) {
    std::size_t i = 0;
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = 0;
      const std::size_t hi = (w + 1) * 64 < size_ ? (w + 1) * 64 : size_;
      for (; i < hi; ++i) {
        bits |= static_cast<std::uint64_t>(static_cast<bool>(pred(i)))
                << (i & 63);
      }
      words_[w] = bits;
    }
  }

  /// Calls f(index) for every set bit, in increasing index order.
  template <typename F>
  void for_each_set(F&& f) const {
    for (std::size_t w = 0; w < words_.size(); ++w) {
      std::uint64_t bits = words_[w];
      while (bits != 0) {
        const int b = std::countr_zero(bits);
        f(w * 64 + static_cast<std::size_t>(b));
        bits &= bits - 1;
      }
    }
  }

  /// Calls f(lo, hi) for every maximal run of non-zero words inside the
  /// bit range [begin, end), passing the bit range [lo, hi) the run covers
  /// (clipped to end).  `begin` must be word-aligned.
  template <typename F>
  void for_each_nonzero_run(std::size_t begin, std::size_t end, F&& f) const {
    DG_ASSERT(begin % 64 == 0 && end <= size_);
    const std::size_t we = (end + 63) / 64;
    std::size_t w = begin / 64;
    while (w < we) {
      if (words_[w] == 0) {
        ++w;
        continue;
      }
      std::size_t run_end = w + 1;
      while (run_end < we && words_[run_end] != 0) ++run_end;
      f(w * 64, run_end * 64 < end ? run_end * 64 : end);
      w = run_end;
    }
  }

  friend bool operator==(const Bitmap& a, const Bitmap& b) noexcept {
    return a.size_ == b.size_ && a.words_ == b.words_;
  }

 private:
  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace dg
