// The dual graph (G, G') of Section 2: G = (V, E) carries reliable links,
// G' = (V, E') with E a subset of E' adds the unreliable links E' \ E whose
// round-by-round presence is chosen by an oblivious link scheduler.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "geo/point.h"
#include "util/assert.h"

namespace dg::graph {

/// Dense vertex index (the paper's graph vertex u in V).
using Vertex = std::uint32_t;

/// Index of an unreliable edge (an element of E' \ E); the link scheduler
/// addresses edges by this index.
using UnreliableEdgeId = std::uint32_t;

struct UnreliableEdge {
  Vertex u = 0;
  Vertex v = 0;
};

/// Immutable-after-build dual graph with adjacency for G and for the
/// unreliable part E' \ E, plus the degree bounds Delta and Delta' the
/// processes are allowed to know.
///
/// Construction uses per-vertex builder lists; finalize() freezes them into
/// flat CSR (offset + data) arrays so the round engine's neighbor scans are
/// contiguous loads instead of pointer-chasing vector<vector> hops.  All
/// query accessors hand out spans over the CSR data.
class DualGraph {
 public:
  /// (edge id, other endpoint) entry of a vertex's unreliable incidence.
  using IncidentEdge = std::pair<UnreliableEdgeId, Vertex>;

  explicit DualGraph(std::size_t n);

  // ---- construction (builder phase) ----

  /// Adds {u, v} to E (and hence to E').  Idempotent.
  void add_reliable_edge(Vertex u, Vertex v);
  /// Adds {u, v} to E' \ E.  Must not already be reliable.  Idempotent.
  void add_unreliable_edge(Vertex u, Vertex v);
  /// Attaches the plane embedding used to generate the graph (optional; used
  /// by validators and the analysis tooling, never by algorithms).  Every
  /// coordinate must be finite.
  void set_embedding(geo::Embedding embedding, double r);

  /// Freezes the graph: sorts adjacency, packs it into CSR arrays, computes
  /// degree bounds, and releases the builder lists.  Must be called exactly
  /// once before any query; enforced by contract checks.
  void finalize();

  // ---- queries (after finalize) ----

  std::size_t size() const noexcept { return n_; }
  bool finalized() const noexcept { return finalized_; }

  // The three adjacency accessors are the round engine's innermost loads;
  // they are defined inline (below) so the CSR base pointers stay in
  // registers across a transmitter scan.
  std::span<const Vertex> g_neighbors(Vertex u) const;
  /// All G'-neighbors (reliable + unreliable), sorted.
  std::span<const Vertex> gprime_neighbors(Vertex u) const;
  /// Unreliable incident edges of u as (edge id, other endpoint) pairs.
  std::span<const IncidentEdge> unreliable_incident(Vertex u) const;

  bool has_reliable_edge(Vertex u, Vertex v) const;
  bool has_gprime_edge(Vertex u, Vertex v) const;

  std::size_t unreliable_edge_count() const;
  const UnreliableEdge& unreliable_edge(UnreliableEdgeId id) const;

  /// Delta: max over u of |N_G(u) u {u}| (paper Section 2).
  std::size_t delta() const;
  /// Delta': max over u of |N_G'(u) u {u}|.
  std::size_t delta_prime() const;

  const std::optional<geo::Embedding>& embedding() const noexcept {
    return embedding_;
  }
  /// The r for which the attached embedding is claimed r-geographic
  /// (meaningful only when an embedding is attached).
  double r() const noexcept { return r_; }

 private:
  void check_vertex(Vertex u) const { DG_EXPECTS(u < n_); }
  void check_builder() const { DG_EXPECTS(!finalized_); }
  void check_finalized() const { DG_EXPECTS(finalized_); }

  std::size_t n_;
  bool finalized_ = false;

  // Builder-phase adjacency; emptied by finalize().
  std::vector<std::vector<Vertex>> build_g_adj_;
  std::vector<std::vector<Vertex>> build_gprime_adj_;
  std::vector<std::vector<IncidentEdge>> build_unreliable_adj_;

  // Frozen CSR arrays: neighbors of u live at data[offsets[u] ..
  // offsets[u + 1]).
  std::vector<std::size_t> g_offsets_;
  std::vector<Vertex> g_data_;
  std::vector<std::size_t> gprime_offsets_;
  std::vector<Vertex> gprime_data_;
  std::vector<std::size_t> unreliable_offsets_;
  std::vector<IncidentEdge> unreliable_data_;

  std::vector<UnreliableEdge> unreliable_edges_;
  std::size_t delta_ = 1;
  std::size_t delta_prime_ = 1;
  std::optional<geo::Embedding> embedding_;
  double r_ = 1.0;
};

inline std::span<const Vertex> DualGraph::g_neighbors(Vertex u) const {
  check_finalized();
  check_vertex(u);
  return {g_data_.data() + g_offsets_[u], g_offsets_[u + 1] - g_offsets_[u]};
}

inline std::span<const Vertex> DualGraph::gprime_neighbors(Vertex u) const {
  check_finalized();
  check_vertex(u);
  return {gprime_data_.data() + gprime_offsets_[u],
          gprime_offsets_[u + 1] - gprime_offsets_[u]};
}

inline std::span<const DualGraph::IncidentEdge> DualGraph::unreliable_incident(
    Vertex u) const {
  check_finalized();
  check_vertex(u);
  return {unreliable_data_.data() + unreliable_offsets_[u],
          unreliable_offsets_[u + 1] - unreliable_offsets_[u]};
}

/// Checks the two r-geographic conditions of Section 2 against an embedding:
///   (1) d(u, v) <= 1  implies {u, v} in E;
///   (2) d(u, v) > r   implies {u, v} not in E'.
/// Returns true iff both hold for every vertex pair.  Only the pairs within
/// distance 1 (found by geo::for_each_pair_within) and the E' edges can
/// violate a condition, so the check costs O(n + |E'|) expected, not O(n^2).
/// Every coordinate of the embedding must be finite.
bool is_r_geographic(const DualGraph& g, const geo::Embedding& embedding,
                     double r);

}  // namespace dg::graph
