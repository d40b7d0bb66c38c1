#include "graph/generators.h"

#include <cmath>
#include <cstddef>
#include <numbers>
#include <vector>

#include "geo/near_pairs.h"
#include "geo/point.h"
#include "util/assert.h"

namespace dg::graph {

namespace {

/// Wires every pair within distance r according to the r-geographic rules
/// (pairs farther apart stay unconnected), using `grey_decision` to classify
/// grey-zone pairs (return values: 0 = absent, 1 = reliable, 2 =
/// unreliable).  Pairs arrive in all-pairs (u, v) order, so edge insertion
/// order (= unreliable edge ids) and every grey-zone RNG draw match a nested
/// u < v scan.
template <typename GreyFn>
void wire_geometric(DualGraph& g, const geo::Embedding& pts, double r,
                    GreyFn&& grey_decision) {
  geo::for_each_pair_within(pts, r, [&](Vertex u, Vertex v, double d) {
    if (d <= 1.0) {
      g.add_reliable_edge(u, v);
      return;
    }
    switch (grey_decision(u, v, d)) {
      case 1:
        g.add_reliable_edge(u, v);
        break;
      case 2:
        g.add_unreliable_edge(u, v);
        break;
      default:
        break;
    }
  });
}

}  // namespace

DualGraph random_geometric(const GeometricSpec& spec, Rng& rng) {
  DG_EXPECTS(spec.n >= 1);
  DG_EXPECTS(spec.side > 0.0);
  DG_EXPECTS(spec.r >= 1.0);
  DG_EXPECTS(spec.p_grey_reliable >= 0.0 && spec.p_grey_reliable <= 1.0);
  DG_EXPECTS(spec.p_grey_unreliable >= 0.0 && spec.p_grey_unreliable <= 1.0);

  geo::Embedding pts(spec.n);
  for (auto& p : pts) {
    p = geo::Point{rng.uniform(0.0, spec.side), rng.uniform(0.0, spec.side)};
  }

  DualGraph g(spec.n);
  wire_geometric(g, pts, spec.r, [&](Vertex, Vertex, double) {
    if (rng.chance(spec.p_grey_reliable)) return 1;
    if (rng.chance(spec.p_grey_unreliable)) return 2;
    return 0;
  });
  g.set_embedding(std::move(pts), spec.r);
  g.finalize();
  return g;
}

DualGraph grid(std::size_t cols, std::size_t rows, double spacing, double r) {
  DG_EXPECTS(cols >= 1 && rows >= 1);
  DG_EXPECTS(spacing > 0.0);
  DG_EXPECTS(r >= 1.0);
  const std::size_t n = cols * rows;
  geo::Embedding pts(n);
  for (std::size_t j = 0; j < rows; ++j) {
    for (std::size_t i = 0; i < cols; ++i) {
      pts[j * cols + i] = geo::Point{i * spacing, j * spacing};
    }
  }
  DualGraph g(n);
  wire_geometric(g, pts, r, [](Vertex, Vertex, double) { return 2; });
  g.set_embedding(std::move(pts), r);
  g.finalize();
  return g;
}

DualGraph clique_cluster(std::size_t n) {
  DG_EXPECTS(n >= 1);
  geo::Embedding pts(n);
  // Pack all nodes in a tiny disc so every pair is within distance 1.
  const double radius = 0.25;
  for (std::size_t i = 0; i < n; ++i) {
    const double angle =
        2.0 * std::numbers::pi * static_cast<double>(i) / static_cast<double>(n);
    const double rho = radius * (n == 1 ? 0.0 : 1.0);
    pts[i] = geo::Point{rho * std::cos(angle), rho * std::sin(angle)};
  }
  DualGraph g(n);
  wire_geometric(g, pts, /*r=*/1.0, [](Vertex, Vertex, double) { return 0; });
  g.set_embedding(std::move(pts), 1.0);
  g.finalize();
  return g;
}

DualGraph star_ring(std::size_t leaves, double r) {
  DG_EXPECTS(leaves >= 1);
  DG_EXPECTS(r >= 1.0);
  const std::size_t n = leaves + 1;
  geo::Embedding pts(n);
  pts[0] = geo::Point{0.0, 0.0};  // hub
  for (std::size_t i = 0; i < leaves; ++i) {
    const double angle = 2.0 * std::numbers::pi * static_cast<double>(i) /
                         static_cast<double>(leaves);
    pts[i + 1] = geo::Point{std::cos(angle), std::sin(angle)};
  }
  DualGraph g(n);
  // Grey-zone leaf pairs stay unconnected: the star stays as sparse as the
  // geographic property permits, concentrating contention on the hub.
  wire_geometric(g, pts, r, [](Vertex, Vertex, double) { return 0; });
  g.set_embedding(std::move(pts), r);
  g.finalize();
  return g;
}

DualGraph line(std::size_t n, double spacing, double r) {
  DG_EXPECTS(n >= 1);
  DG_EXPECTS(spacing > 0.0);
  DG_EXPECTS(r >= 1.0);
  geo::Embedding pts(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts[i] = geo::Point{static_cast<double>(i) * spacing, 0.0};
  }
  DualGraph g(n);
  wire_geometric(g, pts, r, [](Vertex, Vertex, double) { return 2; });
  g.set_embedding(std::move(pts), r);
  g.finalize();
  return g;
}

DualGraph bridged_clusters(std::size_t per_cluster, double r) {
  DG_EXPECTS(per_cluster >= 1);
  DG_EXPECTS(r >= 1.2);  // need grey-zone room for the bridge
  const std::size_t n = 2 * per_cluster;
  geo::Embedding pts(n);
  // Cluster A in a disc around (0, 0), cluster B around (gap, 0), with
  // 1 < gap <= r so cross-cluster pairs are exactly in the grey zone.
  const double gap = 1.0 + (r - 1.0) * 0.5;
  const double radius = 0.05;
  for (std::size_t i = 0; i < per_cluster; ++i) {
    const double angle = 2.0 * std::numbers::pi * static_cast<double>(i) /
                         static_cast<double>(per_cluster);
    pts[i] = geo::Point{radius * std::cos(angle), radius * std::sin(angle)};
    pts[per_cluster + i] =
        geo::Point{gap + radius * std::cos(angle), radius * std::sin(angle)};
  }
  DualGraph g(n);
  wire_geometric(g, pts, r, [](Vertex, Vertex, double) { return 2; });
  g.set_embedding(std::move(pts), r);
  g.finalize();
  return g;
}

DualGraph contention_star(std::size_t unreliable_neighbors) {
  DualGraph g(unreliable_neighbors + 2);
  g.add_reliable_edge(0, 1);
  for (Vertex v = 2; v < unreliable_neighbors + 2; ++v) {
    g.add_unreliable_edge(0, v);
  }
  g.finalize();
  return g;
}

DualGraph disjoint_cliques(std::size_t cliques, std::size_t clique_size) {
  DualGraph g(cliques * clique_size);
  for (std::size_t c = 0; c < cliques; ++c) {
    for (std::size_t i = 0; i < clique_size; ++i) {
      for (std::size_t j = i + 1; j < clique_size; ++j) {
        g.add_reliable_edge(static_cast<Vertex>(c * clique_size + i),
                            static_cast<Vertex>(c * clique_size + j));
      }
    }
  }
  g.finalize();
  return g;
}

}  // namespace dg::graph
