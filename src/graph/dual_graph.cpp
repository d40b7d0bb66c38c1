#include "graph/dual_graph.h"

#include <algorithm>

#include "geo/near_pairs.h"
#include "util/assert.h"

namespace dg::graph {

namespace {

/// Packs per-vertex builder lists into offsets + one contiguous data array,
/// releasing the builder storage as it goes.
template <typename T>
void pack_csr(std::vector<std::vector<T>>& lists,
              std::vector<std::size_t>& offsets, std::vector<T>& data) {
  const std::size_t n = lists.size();
  offsets.resize(n + 1);
  std::size_t total = 0;
  for (std::size_t u = 0; u < n; ++u) {
    offsets[u] = total;
    total += lists[u].size();
  }
  offsets[n] = total;
  data.reserve(total);
  for (auto& list : lists) {
    data.insert(data.end(), list.begin(), list.end());
    list = {};  // release per-vertex storage eagerly
  }
  lists = {};
}

}  // namespace

DualGraph::DualGraph(std::size_t n)
    : n_(n),
      build_g_adj_(n),
      build_gprime_adj_(n),
      build_unreliable_adj_(n) {
  DG_EXPECTS(n >= 1);
}

void DualGraph::add_reliable_edge(Vertex u, Vertex v) {
  check_builder();
  check_vertex(u);
  check_vertex(v);
  DG_EXPECTS(u != v);
  auto& au = build_g_adj_[u];
  if (std::find(au.begin(), au.end(), v) != au.end()) return;  // idempotent
  // Must not previously have been added as unreliable: E and E' \ E are
  // built disjointly (generators decide the class of each edge once).
  DG_EXPECTS(std::none_of(
      build_unreliable_adj_[u].begin(), build_unreliable_adj_[u].end(),
      [v](const auto& entry) { return entry.second == v; }));
  build_g_adj_[u].push_back(v);
  build_g_adj_[v].push_back(u);
  build_gprime_adj_[u].push_back(v);
  build_gprime_adj_[v].push_back(u);
}

void DualGraph::add_unreliable_edge(Vertex u, Vertex v) {
  check_builder();
  check_vertex(u);
  check_vertex(v);
  DG_EXPECTS(u != v);
  const auto& au = build_unreliable_adj_[u];
  if (std::any_of(au.begin(), au.end(),
                  [v](const auto& entry) { return entry.second == v; })) {
    return;  // idempotent
  }
  DG_EXPECTS(std::find(build_g_adj_[u].begin(), build_g_adj_[u].end(), v) ==
             build_g_adj_[u].end());
  const auto id = static_cast<UnreliableEdgeId>(unreliable_edges_.size());
  unreliable_edges_.push_back(UnreliableEdge{u, v});
  build_unreliable_adj_[u].emplace_back(id, v);
  build_unreliable_adj_[v].emplace_back(id, u);
  build_gprime_adj_[u].push_back(v);
  build_gprime_adj_[v].push_back(u);
}

void DualGraph::set_embedding(geo::Embedding embedding, double r) {
  check_builder();
  DG_EXPECTS(embedding.size() == n_);
  DG_EXPECTS(r >= 1.0);
  DG_EXPECTS(std::all_of(embedding.begin(), embedding.end(), geo::is_finite));
  embedding_ = std::move(embedding);
  r_ = r;
}

void DualGraph::finalize() {
  check_builder();
  finalized_ = true;
  delta_ = 1;
  delta_prime_ = 1;
  for (std::size_t u = 0; u < n_; ++u) {
    std::sort(build_g_adj_[u].begin(), build_g_adj_[u].end());
    std::sort(build_gprime_adj_[u].begin(), build_gprime_adj_[u].end());
    // Unreliable incidence keeps insertion order: consumers (e.g. the
    // targeted jammer's "first transmitting incident edge" rule) observe it.
    delta_ = std::max(delta_, build_g_adj_[u].size() + 1);
    delta_prime_ = std::max(delta_prime_, build_gprime_adj_[u].size() + 1);
  }
  pack_csr(build_g_adj_, g_offsets_, g_data_);
  pack_csr(build_gprime_adj_, gprime_offsets_, gprime_data_);
  pack_csr(build_unreliable_adj_, unreliable_offsets_, unreliable_data_);
}

bool DualGraph::has_reliable_edge(Vertex u, Vertex v) const {
  check_vertex(v);
  const auto adj = g_neighbors(u);
  return std::binary_search(adj.begin(), adj.end(), v);
}

bool DualGraph::has_gprime_edge(Vertex u, Vertex v) const {
  check_vertex(v);
  const auto adj = gprime_neighbors(u);
  return std::binary_search(adj.begin(), adj.end(), v);
}

std::size_t DualGraph::unreliable_edge_count() const {
  check_finalized();
  return unreliable_edges_.size();
}

const UnreliableEdge& DualGraph::unreliable_edge(UnreliableEdgeId id) const {
  check_finalized();
  DG_EXPECTS(id < unreliable_edges_.size());
  return unreliable_edges_[id];
}

std::size_t DualGraph::delta() const {
  check_finalized();
  return delta_;
}

std::size_t DualGraph::delta_prime() const {
  check_finalized();
  return delta_prime_;
}

bool is_r_geographic(const DualGraph& g, const geo::Embedding& embedding,
                     double r) {
  DG_EXPECTS(embedding.size() == g.size());
  DG_EXPECTS(r >= 1.0);
  // (1) only constrains pairs within distance 1: the bucketed walk finds
  // exactly those, and first checks that every coordinate is finite.
  bool ok = true;
  geo::for_each_pair_within(embedding, 1.0, [&](Vertex u, Vertex v, double) {
    ok = ok && g.has_reliable_edge(u, v);
  });
  if (!ok) return false;
  // (2) only constrains the pairs that are G' edges: one pass over E'.
  const auto n = static_cast<Vertex>(g.size());
  for (Vertex u = 0; u < n; ++u) {
    for (const Vertex v : g.gprime_neighbors(u)) {
      if (u < v && geo::distance(embedding[u], embedding[v]) > r) return false;
    }
  }
  return true;
}

}  // namespace dg::graph
