// Physical-layer channel models.
//
// The round engine realizes the paper's round micro-structure (transmit
// decisions -> reception -> outputs) but delegates the *reception physics*
// -- given who transmits, what does each listening vertex hear? -- to a
// ChannelModel.  Two implementations exist:
//
//   * DualGraphChannel (phys/dual_graph_channel.h): the paper's Section 2
//     rule -- a listener receives iff exactly one neighbor in the round
//     topology (E plus the scheduler's unreliable subset) transmitted.
//     This is the default and is bit-for-bit identical to the reception
//     code that used to live inline in Engine::run_round()
//     (tests/determinism_test.cpp pins golden digests across the seam).
//
//   * SinrChannel (phys/sinr.h): ground-truth radio physics -- reception is
//     decided by the signal-to-interference-plus-noise ratio over a plane
//     embedding, not by per-edge combinatorics.  An *extension* beyond the
//     source paper (see docs/PAPER_MAP.md), used to test how well the dual
//     graph abstracts real interference.
//
// Contract: per round the engine calls fill_frontier() (which vertices could
// hear anything), prepare_round() (serial staging), then compute() over one
// or more vertex ranges.  compute() writes a packed word into heard[u] --
// high 32 bits = the vertex most recently heard from, low 32 bits = the
// number of decodable senders at u.  The engine interprets count == 1 as a
// delivery from the packed sender, count == 0 as silence and count > 1 as
// a collision (both surfaced to the process as the null indicator: no
// collision detection).  Entries of transmitting vertices are ignored
// (transmitters hear nothing).
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "graph/dual_graph.h"
#include "sim/process.h"
#include "util/assert.h"
#include "util/bitmap.h"

namespace dg::sim {
class AdaptiveAdversary;
}  // namespace dg::sim

namespace dg::util {
class ThreadPool;
}  // namespace dg::util

namespace dg::phys {

/// Packs a reception word: `from` in the high 32 bits, `count` in the low
/// 32.  Channel implementations accumulate with heard_word(v, old + 1).
constexpr std::uint64_t heard_word(graph::Vertex from,
                                   std::uint64_t count) noexcept {
  return (static_cast<std::uint64_t>(from) << 32) | (count & 0xffffffffULL);
}

class ChannelModel {
 public:
  virtual ~ChannelModel() = default;

  /// Binds the channel to a deployment.  Called exactly once, before round 1
  /// (the engine calls it from its constructor).  All channel randomness is
  /// derived from `master_seed` here; after bind(), reception must be a
  /// deterministic function of (round, transmit set).
  virtual void bind(const graph::DualGraph& g, std::uint64_t master_seed) = 0;

  /// Installs the E12 adaptive adversary (sim/adaptive.h).  Only meaningful
  /// for channels whose reception is link-scheduler-driven; the default
  /// rejects the attempt (SINR reception has no edge schedule to override).
  virtual void set_adaptive_adversary(sim::AdaptiveAdversary* adversary) {
    (void)adversary;
    DG_EXPECTS(!"this channel model does not support adaptive adversaries");
  }

  /// Hands the engine's round thread pool to the channel, so the serial
  /// per-round staging (prepare_round) may itself fan out block-parallel
  /// work -- the pool is guaranteed idle whenever the engine calls into
  /// the channel serially.  The pool outlives every subsequent round; the
  /// engine re-calls this if it rebuilds the pool.  Sharding a precompute
  /// must not change its bytes: results stay identical at every thread
  /// count.  Default: ignored.
  virtual void set_round_pool(util::ThreadPool* pool) { (void)pool; }

  /// Marks in `frontier` every vertex u whose heard[u] could be non-zero
  /// this round, given the transmit set: a conservative, schedule-
  /// independent superset (it may include vertices that end up hearing
  /// nothing, never the reverse).  Bits already set in `frontier` must be
  /// left set (the engine pre-seeds fault-event vertices).  Called serially
  /// once per round, before prepare_round().
  virtual void fill_frontier(const Bitmap& transmitting, Bitmap& frontier) = 0;

  /// Serial per-round staging: everything that depends only on (round,
  /// transmit set) -- scheduler strategy selection, edge bitmap fills,
  /// transmitter bucketing -- happens here, once, before any compute().
  virtual void prepare_round(sim::Round round, const Bitmap& transmitting) = 0;

  /// Reception over the vertex range [begin, end) (64-aligned begin): fills
  /// heard[u] for every u in a non-zero word of `frontier` inside the
  /// range, reading whatever prepare_round() staged.  The caller pre-zeroes
  /// heard over exactly those words; entries outside them must not be
  /// written.  An implementation may compute the range here or stage the
  /// whole round in prepare_round() and only hand the range's words over.
  /// May be called concurrently for disjoint ranges; the words
  /// written must not depend on how the caller split the vertex set.
  /// `heard` is the full vertex-indexed span.
  virtual void compute(sim::Round round, const Bitmap& transmitting,
                       std::span<std::uint64_t> heard, const Bitmap& frontier,
                       graph::Vertex begin, graph::Vertex end) = 0;

  /// Whether deliveries are confined to edges of the bound dual graph.
  /// True for DualGraphChannel (the Section 2 rule *is* the graph);
  /// false by default for physical channels, whose ground truth may
  /// deliver across pairs the declared G' does not connect -- spec
  /// checkers use this to know when the G'-adjacency clause of validity
  /// applies (see lb/spec.h).
  virtual bool respects_dual_graph() const { return false; }

  /// Human-readable channel identifier (benches and traces record it).
  virtual std::string name() const = 0;
};

}  // namespace dg::phys
