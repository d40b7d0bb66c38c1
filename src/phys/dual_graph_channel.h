// The Section 2 dual-graph reception rule as a ChannelModel.
//
// A listening vertex u receives iff exactly one neighbor in the round
// topology G_t = E + {scheduler's active unreliable edges} transmitted.
// This code is the former Engine::run_round() reception pass, extracted
// verbatim behind the channel seam: the scheduler-consumption strategy
// (bulk bitmap fill vs per-incident-edge probes), the adaptive-adversary
// override and the fused heard-count/heard-from scan are all preserved, and
// the golden execution digests of tests/determinism_test.cpp pin that the
// extraction is bit-for-bit.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "phys/channel.h"
#include "sim/scheduler.h"

namespace dg::phys {

class DualGraphChannel final : public ChannelModel {
 public:
  /// The scheduler must outlive the channel.  bind() commits it (with the
  /// same seed stream the engine historically used), so a scheduler must
  /// not be shared across channels.
  explicit DualGraphChannel(sim::LinkScheduler& scheduler)
      : scheduler_(&scheduler) {}

  void bind(const graph::DualGraph& g, std::uint64_t master_seed) override;
  void set_adaptive_adversary(sim::AdaptiveAdversary* adversary) override {
    adaptive_ = adversary;
  }
  /// Frontier: every G-neighbor of a transmitter plus every unreliable-
  /// incident endpoint, whether or not the edge fires -- a schedule-
  /// independent superset, so the mask never consumes a scheduler draw.
  void fill_frontier(const Bitmap& transmitting, Bitmap& frontier) override;
  /// Runs the strategy block (adaptive plan, bulk fill vs per-edge
  /// probes), then scatters from the transmitters over their CSR adjacency
  /// into staged_: one pass of sum deg(tx) per round, whatever the thread
  /// count.
  void prepare_round(sim::Round round, const Bitmap& transmitting) override;
  /// Moves the staged words of the range's frontier words into heard (every
  /// scatter write lands in the frontier), leaving staged_ zero there.
  void compute(sim::Round round, const Bitmap& transmitting,
               std::span<std::uint64_t> heard, const Bitmap& frontier,
               graph::Vertex begin, graph::Vertex end) override;
  bool respects_dual_graph() const override { return true; }
  std::string name() const override;

  const sim::LinkScheduler& scheduler() const noexcept { return *scheduler_; }

 private:
  const graph::DualGraph* graph_ = nullptr;
  sim::LinkScheduler* scheduler_;
  sim::AdaptiveAdversary* adaptive_ = nullptr;

  // Scratch reused every round, sized at bind().
  sim::EdgeBitmap edge_active_;           ///< this round's unreliable subset
  std::vector<bool> transmitting_bools_;  ///< adaptive plan_round view
  /// Strategy picked by prepare_round() for the round's compute() calls:
  /// probe edge_active_ (true) or scheduler_->active() (false).
  bool use_bitmap_ = false;
  /// This round's packed heard words, written by prepare_round() and
  /// handed over (and re-zeroed) by compute(); zero between rounds.
  std::vector<std::uint64_t> staged_;
};

}  // namespace dg::phys
