#include "phys/dual_graph_channel.h"

#include <algorithm>

#include "sim/adaptive.h"
#include "util/rng.h"

namespace dg::phys {

void DualGraphChannel::bind(const graph::DualGraph& g,
                            std::uint64_t master_seed) {
  DG_EXPECTS(g.finalized());
  graph_ = &g;
  // Stream tag 0x5c4ed is the historical scheduler stream: committing here
  // (instead of in the engine) must not move any scheduler RNG draw.
  scheduler_->commit(g, derive_seed(master_seed, /*stream=*/0x5c4edULL));
  edge_active_.resize(g.unreliable_edge_count());
  staged_.assign(g.size(), 0);
}

void DualGraphChannel::prepare_round(sim::Round round,
                                     const Bitmap& transmitting) {
  const graph::DualGraph& g = *graph_;
  // `unreliable_probes` counts the edge-presence tests the reception pass
  // will make; it picks the scheduler consumption strategy below.
  std::size_t unreliable_probes = 0;
  transmitting.for_each_set([&](std::size_t v) {
    unreliable_probes +=
        g.unreliable_incident(static_cast<graph::Vertex>(v)).size();
  });

  // The round's unreliable subset comes from the oblivious scheduler, or --
  // for the E12 counterfactual, outside the paper's model -- from an
  // installed adaptive adversary that sees the transmit decisions first.
  //
  // Strategy: materialize the whole subset into edge_active_ (one bit-probe
  // per edge below) when the fill is word-cheap or the round is dense
  // enough in transmitter-incident edges to amortize a per-edge fill;
  // otherwise probe the scheduler per incident edge, so sparse rounds never
  // pay for edges nobody transmits across.  Both paths are bit-identical by
  // the fill_round() == active() contract.
  use_bitmap_ = true;
  if (adaptive_ != nullptr) {
    transmitting_bools_.assign(g.size(), false);
    transmitting.for_each_set(
        [&](std::size_t v) { transmitting_bools_[v] = true; });
    adaptive_->plan_round(round, g, transmitting_bools_);
    adaptive_->fill_round(edge_active_);
  } else if (unreliable_probes == 0) {
    // No transmitter has unreliable incidence, so the scatter below probes
    // no edge; edge_active_ may be stale and is never read.
    use_bitmap_ = false;
  } else if (scheduler_->fill_round_is_word_cheap() ||
             unreliable_probes * 2 >= edge_active_.size()) {
    scheduler_->fill_round(round, edge_active_);
  } else {
    use_bitmap_ = false;
  }

  // Fused heard-count/heard-from scatter, once per round whatever the
  // thread count: one packed word per vertex (high 32 bits last sender,
  // low 32 bits count) over CSR adjacency.  for_each_set scans ascending,
  // so the sender is the largest transmitting round-neighbor.  Every write
  // lands in a frontier word, where compute() picks it up.
  const bool use_bitmap = use_bitmap_;
  const auto edge_active = [&](std::size_t edge) {
    return use_bitmap ? edge_active_.test(edge)
                      : scheduler_->active(edge, round);
  };
  transmitting.for_each_set([&](std::size_t vi) {
    const auto v = static_cast<graph::Vertex>(vi);
    const std::uint64_t sender_word = static_cast<std::uint64_t>(v) << 32;
    for (graph::Vertex u : g.g_neighbors(v)) {
      staged_[u] = sender_word | ((staged_[u] + 1) & 0xffffffffULL);
    }
    for (const auto& [edge, u] : g.unreliable_incident(v)) {
      if (edge_active(edge)) {
        staged_[u] = sender_word | ((staged_[u] + 1) & 0xffffffffULL);
      }
    }
  });
}

void DualGraphChannel::compute(sim::Round round, const Bitmap& transmitting,
                               std::span<std::uint64_t> heard,
                               const Bitmap& frontier, graph::Vertex begin,
                               graph::Vertex end) {
  (void)round;
  (void)transmitting;
  // heard is zero over the range's frontier words, and staged_ holds the
  // round's words there: the swap delivers them and re-zeroes staged_ for
  // the next round's scatter.
  frontier.for_each_nonzero_run(begin, end, [&](std::size_t lo,
                                                std::size_t hi) {
    std::swap_ranges(staged_.begin() + static_cast<std::ptrdiff_t>(lo),
                     staged_.begin() + static_cast<std::ptrdiff_t>(hi),
                     heard.begin() + static_cast<std::ptrdiff_t>(lo));
  });
}

void DualGraphChannel::fill_frontier(const Bitmap& transmitting,
                                     Bitmap& frontier) {
  const graph::DualGraph& g = *graph_;
  // Conservative superset of this round's hearers: reliable neighbors plus
  // *all* unreliable-incident endpoints of every transmitter, regardless of
  // which edges the scheduler (or an adaptive adversary) activates.  Being
  // schedule-independent keeps the scheduler's RNG consumption and the
  // adaptive plan_round() call order independent of the frontier; the
  // cost is O(sum deg(tx)), the same order as the scatter itself.
  transmitting.for_each_set([&](std::size_t vi) {
    const auto v = static_cast<graph::Vertex>(vi);
    for (graph::Vertex u : g.g_neighbors(v)) frontier.set(u);
    for (const auto& [edge, u] : g.unreliable_incident(v)) {
      (void)edge;
      frontier.set(u);
    }
  });
}

std::string DualGraphChannel::name() const {
  return "dual-graph(" + scheduler_->name() + ")";
}

}  // namespace dg::phys
