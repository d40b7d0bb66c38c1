// SINR ground-truth channel: reception decided by physics, not edges.
//
// This is an *extension* beyond the source paper (see docs/PAPER_MAP.md):
// the dual graph of Section 2 abstracts radio behavior into per-edge
// reliability classes, and this channel provides the ground truth to test
// that abstraction against, in the spirit of Halldorsson-Mitra ("Towards
// Tight Bounds for Local Broadcasting") and Halldorsson-Holzer-Lynch ("A
// Local Broadcast Layer for the SINR Network Model").
//
// Model: nodes live at fixed plane positions (the deployment embedding);
// every transmitter radiates uniform power P with path-loss exponent alpha,
// so its signal at distance d is P * d^-alpha.  A listening node u decodes
// sender v iff
//
//     P d(v,u)^-alpha  >=  beta * (N + sum_{w in Tx, w != v} P d(w,u)^-alpha)
//
// and the round delivers at u iff exactly one sender clears the threshold
// (with beta >= 1 at most one sender can ever clear, so this matches the
// classical SINR reception rule).
//
// Acceleration: the naive rule costs O(n * |Tx|) per round.  SinrChannel
// buckets nodes into a geo::GridPartition cell grid whose region-graph
// radius covers the maximum decodable range, computes the signal and
// interference of *near* transmitters (cells within that radius) exactly,
// and aggregates each *far* cell's transmitters into one term
// P * count * min_cell_distance^-alpha evaluated per receiver cell.  Far
// cells are strictly beyond decodable range, so candidate senders are
// always evaluated exactly; the far-field term is a deterministic,
// conservative (over-)estimate of far interference that is monotone in the
// transmit set -- adding a transmitter never lowers any receiver's
// interference estimate, preserving the SINR monotonicity property
// (tests/phys_test.cpp).  Per-round cost is O(|Tx| + C_rx * C_tx + near
// pairs) where C are occupied cell counts -- near-linear for bounded
// density instead of O(n * |Tx|).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "geo/point.h"
#include "geo/region_partition.h"
#include "phys/channel.h"

namespace dg::phys {

struct SinrParams {
  double alpha = 3.0;  ///< path-loss exponent (2..6 in practice)
  double beta = 2.0;   ///< decoding threshold, linear (>= 1: unique decode)
  double noise = 0.1;  ///< ambient noise N > 0
  double power = 1.0;  ///< uniform transmit power P

  /// Bucket-grid cell side (must satisfy the GridPartition diameter bound
  /// side * sqrt(2) <= 1).
  double cell_side = 0.5;

  /// Maximum distance at which a sender can clear beta even with zero
  /// interference: (P / (beta * N))^(1/alpha).  Everything farther is pure
  /// interference.
  double max_signal_range() const;
};

/// Received power of one transmitter at squared distance `distance_sq`:
/// P * d^-alpha, computed without the square root.  Distances are clamped
/// away from zero so coincident points cannot produce inf.
inline double path_gain(const SinrParams& p, double distance_sq) {
  constexpr double kMinDistSq = 1e-18;
  return p.power * std::pow(std::max(distance_sq, kMinDistSq), -0.5 * p.alpha);
}

class SinrChannel final : public ChannelModel {
 public:
  /// Positions come from the bound graph's attached embedding.
  explicit SinrChannel(const SinrParams& params);

  /// Positions come from `embedding` (one point per vertex), regardless of
  /// the bound graph's own embedding -- e.g. running processes parameterized
  /// by an *extracted* (rescaled) dual graph over the raw deployment
  /// geometry.
  SinrChannel(const SinrParams& params, geo::Embedding embedding);

  void bind(const graph::DualGraph& g, std::uint64_t master_seed) override;
  /// Frontier: noise > 0 bounds the decodable range, and near sets are
  /// symmetric in min_cell_distance, so every possible hearer lives in a
  /// near cell of some transmitter cell.  fill_frontier() unions those
  /// cells' members (deduped with O(activity) touched-flag scratch).
  void fill_frontier(const Bitmap& transmitting, Bitmap& frontier) override;
  /// Buckets the round's transmitters and computes the per-cell far field
  /// (both functions of the transmit set alone).  The far-field precompute
  /// (per receiver cell, disjoint writes, inner accumulation order
  /// unchanged) shards over the engine's pool when one is installed --
  /// bit-identical to the serial pass at any thread count.
  void set_round_pool(util::ThreadPool* pool) override { pool_ = pool; }
  void prepare_round(sim::Round round, const Bitmap& transmitting) override;
  /// The per-receiver verdict loop over the range's frontier words, with
  /// thread-local candidate scratch.  Per-receiver arithmetic and
  /// accumulation order do not depend on the range, so the floating-point
  /// verdicts match bit for bit however the engine splits the vertices.
  void compute(sim::Round round, const Bitmap& transmitting,
               std::span<std::uint64_t> heard, const Bitmap& frontier,
               graph::Vertex begin, graph::Vertex end) override;
  std::string name() const override;

  const SinrParams& params() const noexcept { return params_; }

 private:
  struct Cell {
    geo::RegionId id;
    std::vector<graph::Vertex> members;  ///< all vertices in the cell
    std::vector<std::size_t> near;       ///< cell indices within near radius
  };

  std::size_t cell_index(const geo::RegionId& id) const;

  SinrParams params_;
  geo::Embedding positions_;
  bool explicit_embedding_;
  double near_radius_ = 0.0;   ///< >= max_signal_range(), >= 1 (grid bound)
  double range_sq_ = 0.0;      ///< max_signal_range squared
  std::vector<Cell> cells_;
  std::unordered_map<geo::RegionId, std::size_t, geo::RegionIdHash>
      cell_of_id_;
  std::vector<std::size_t> cell_of_vertex_;

  // Per-round scratch, sized at bind(); written only by prepare_round(),
  // read-only during the (possibly concurrent) compute() calls.
  std::vector<std::vector<graph::Vertex>> cell_tx_;  ///< transmitters per cell
  std::vector<std::size_t> tx_cells_;                ///< touched cell indices
  std::vector<double> far_field_;                    ///< per receiver cell

  // fill_frontier() dedup scratch: flags + touched lists so each call costs
  // O(activity), not O(cell count).  Sized at bind(), reset after each use.
  std::vector<std::uint8_t> frontier_tx_seen_;    ///< tx cell already expanded
  std::vector<std::uint8_t> frontier_cell_seen_;  ///< cell already unioned
  std::vector<std::size_t> frontier_tx_touched_;  ///< tx flags to reset
  std::vector<std::size_t> frontier_touched_;     ///< cell flags to reset

  util::ThreadPool* pool_ = nullptr;  ///< engine's pool; idle when we run
};

}  // namespace dg::phys
