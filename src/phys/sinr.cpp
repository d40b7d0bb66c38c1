#include "phys/sinr.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"
#include "util/thread_pool.h"

namespace dg::phys {

double SinrParams::max_signal_range() const {
  return std::pow(power / (beta * noise), 1.0 / alpha);
}

SinrChannel::SinrChannel(const SinrParams& params)
    : params_(params), explicit_embedding_(false) {
  DG_EXPECTS(params.alpha > 0.0);
  DG_EXPECTS(params.beta >= 1.0);  // unique-decode regime (see header)
  DG_EXPECTS(params.noise > 0.0);
  DG_EXPECTS(params.power > 0.0);
}

SinrChannel::SinrChannel(const SinrParams& params, geo::Embedding embedding)
    : SinrChannel(params) {
  positions_ = std::move(embedding);
  explicit_embedding_ = true;
}

std::size_t SinrChannel::cell_index(const geo::RegionId& id) const {
  const auto it = cell_of_id_.find(id);
  DG_ASSERT(it != cell_of_id_.end());
  return it->second;
}

void SinrChannel::bind(const graph::DualGraph& g, std::uint64_t master_seed) {
  (void)master_seed;  // the SINR channel is deterministic given positions
  DG_EXPECTS(g.finalized());
  if (!explicit_embedding_) {
    DG_EXPECTS(g.embedding().has_value());
    positions_ = *g.embedding();
  }
  DG_EXPECTS(positions_.size() == g.size());

  near_radius_ = std::max(1.0, params_.max_signal_range());
  const double range = params_.max_signal_range();
  range_sq_ = range * range;
  const geo::GridPartition grid(params_.cell_side, near_radius_);

  // Static cell directory: every vertex bucketed once; cells are created in
  // first-touch (ascending vertex) order, so layout is deterministic.
  cells_.clear();
  cell_of_id_.clear();
  cell_of_vertex_.assign(positions_.size(), 0);
  for (graph::Vertex v = 0; v < static_cast<graph::Vertex>(positions_.size());
       ++v) {
    const geo::RegionId id = grid.region_of(positions_[v]);
    auto [it, inserted] = cell_of_id_.try_emplace(id, cells_.size());
    if (inserted) cells_.push_back(Cell{id, {}, {}});
    cells_[it->second].members.push_back(v);
    cell_of_vertex_[v] = it->second;
  }

  // Near sets: occupied cells whose closures come within the decodable
  // radius.  GridPartition::neighbors enumerates exactly the cells with
  // min_cell_distance <= r, so every possible decodable sender of a
  // receiver in `cell` lives in cell.near.
  for (Cell& cell : cells_) {
    cell.near.push_back(cell_of_id_.at(cell.id));
    for (const geo::RegionId& nb : grid.neighbors(cell.id)) {
      const auto it = cell_of_id_.find(nb);
      if (it != cell_of_id_.end()) cell.near.push_back(it->second);
    }
    std::sort(cell.near.begin(), cell.near.end());
  }

  cell_tx_.assign(cells_.size(), {});
  tx_cells_.clear();
  tx_cells_.reserve(cells_.size());
  far_field_.assign(cells_.size(), 0.0);
  frontier_tx_seen_.assign(cells_.size(), 0);
  frontier_cell_seen_.assign(cells_.size(), 0);
  frontier_tx_touched_.clear();
  frontier_touched_.clear();
}

void SinrChannel::fill_frontier(const Bitmap& transmitting, Bitmap& frontier) {
  // Every decodable sender of a receiver in cell rc lives in a cell of
  // cells_[rc].near (bind() sizes the near radius to the max decodable
  // range), and min_cell_distance is symmetric, so the possible hearers of
  // a transmitter in cell tc are exactly the members of cells_[tc].near.
  // Dedup through the touched-flag scratch keeps the cost O(activity).
  transmitting.for_each_set([&](std::size_t vi) {
    const std::size_t tc = cell_of_vertex_[vi];
    if (frontier_tx_seen_[tc] != 0) return;
    frontier_tx_seen_[tc] = 1;
    frontier_tx_touched_.push_back(tc);
    for (std::size_t nc : cells_[tc].near) {
      if (frontier_cell_seen_[nc] != 0) continue;
      frontier_cell_seen_[nc] = 1;
      frontier_touched_.push_back(nc);
      for (graph::Vertex u : cells_[nc].members) frontier.set(u);
    }
  });
  for (std::size_t c : frontier_tx_touched_) frontier_tx_seen_[c] = 0;
  for (std::size_t c : frontier_touched_) frontier_cell_seen_[c] = 0;
  frontier_tx_touched_.clear();
  frontier_touched_.clear();
}

void SinrChannel::prepare_round(sim::Round round, const Bitmap& transmitting) {
  (void)round;
  // Bucket this round's transmitters (touched-cell list keeps the clear
  // step proportional to the previous round's transmitter spread).
  for (std::size_t c : tx_cells_) cell_tx_[c].clear();
  tx_cells_.clear();
  transmitting.for_each_set([&](std::size_t vi) {
    const auto v = static_cast<graph::Vertex>(vi);
    const std::size_t c = cell_of_vertex_[v];
    if (cell_tx_[c].empty()) tx_cells_.push_back(c);
    cell_tx_[c].push_back(v);
  });
  if (tx_cells_.empty()) return;  // compute() early-outs too

  // Far-field estimate per receiver cell: each far transmitter cell
  // contributes P * count * min_cell_distance^-alpha -- a conservative
  // per-cell monopole whose distance term depends only on cell geometry, so
  // the estimate is monotone in the transmit set (see header).  tx_cells_
  // is in first-touch (ascending transmitter) order: deterministic.
  //
  // The receiver-cell loop shards over the engine's pool when one is
  // installed (prepare_round runs in the engine's serial section, so the
  // pool is idle): per-cell writes are disjoint and each cell keeps the
  // exact inner tx_cells_ accumulation order, so the sharded fill is
  // bit-identical to the serial one at every thread count.
  const geo::GridPartition grid(params_.cell_side, near_radius_);
  const auto fill_cells = [&](std::size_t rc_begin, std::size_t rc_end) {
    for (std::size_t rc = rc_begin; rc < rc_end; ++rc) {
      double far = 0.0;
      for (std::size_t tc : tx_cells_) {
        const double d = grid.min_cell_distance(cells_[rc].id, cells_[tc].id);
        if (d <= near_radius_) continue;  // exact near term handles it
        far += params_.power * static_cast<double>(cell_tx_[tc].size()) *
               std::pow(d, -params_.alpha);
      }
      far_field_[rc] = far;
    }
  };
  const std::size_t cell_count = cells_.size();
  if (pool_ != nullptr && pool_->threads() > 1 && cell_count >= 2) {
    const std::size_t blocks = std::min(pool_->threads() * 4, cell_count);
    const std::size_t block_size = (cell_count + blocks - 1) / blocks;
    pool_->for_blocks(blocks, [&](std::size_t b) {
      const std::size_t rc_begin = b * block_size;
      fill_cells(rc_begin, std::min(rc_begin + block_size, cell_count));
    });
  } else {
    fill_cells(0, cell_count);
  }
}

void SinrChannel::compute(sim::Round round, const Bitmap& transmitting,
                          std::span<std::uint64_t> heard,
                          const Bitmap& frontier, graph::Vertex begin,
                          graph::Vertex end) {
  (void)round;
  if (tx_cells_.empty()) return;

  // Per-receiver verdicts: exact signal + interference over near cells,
  // far-field estimate for the rest, deliver iff exactly one candidate
  // clears beta (with beta >= 1, at most one ever does).  Visiting a
  // non-frontier vertex inside a frontier word is harmless (its verdict is
  // clears == 0, no write); skipping empty words is where sparsity pays.
  // Candidate scratch is thread-local: concurrent ranges must not share a
  // buffer, and each receiver's candidate list is rebuilt from scratch.
  static thread_local std::vector<std::pair<graph::Vertex, double>> candidates;
  frontier.for_each_nonzero_run(begin, end, [&](std::size_t lo,
                                                std::size_t hi) {
    for (auto u = static_cast<graph::Vertex>(lo); u < hi; ++u) {
      if (transmitting.test(u)) continue;  // transmitters hear nothing
      const std::size_t rc = cell_of_vertex_[u];
      const geo::Point& pu = positions_[u];
      double interference = far_field_[rc];
      candidates.clear();
      for (std::size_t nc : cells_[rc].near) {
        for (graph::Vertex v : cell_tx_[nc]) {
          const double d2 = geo::distance_sq(pu, positions_[v]);
          const double gain = path_gain(params_, d2);
          interference += gain;
          if (d2 <= range_sq_) candidates.emplace_back(v, gain);
        }
      }
      std::uint64_t clears = 0;
      graph::Vertex from = 0;
      for (const auto& [v, gain] : candidates) {
        // SINR test: gain / (N + I - gain) >= beta, rearranged to avoid
        // the division.
        if (gain >= params_.beta * (params_.noise + interference - gain)) {
          ++clears;
          from = v;
        }
      }
      if (clears != 0) heard[u] = heard_word(from, clears);
    }
  });
}

std::string SinrChannel::name() const {
  return "sinr(alpha=" + std::to_string(params_.alpha) +
         ",beta=" + std::to_string(params_.beta) +
         ",noise=" + std::to_string(params_.noise) + ")";
}

}  // namespace dg::phys
