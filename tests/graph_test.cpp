// Tests for the dual graph structure and the topology generators: the
// E subset-of E' invariant, degree bounds, the r-geographic conditions of
// Section 2 (property sweeps over random instances), Lemma A.3, and the
// bucketed geometric wiring and validation held bit for bit to all-pairs
// oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "geo/region_partition.h"
#include "graph/dual_graph.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace dg::graph {
namespace {

TEST(DualGraph, ReliableEdgesAppearInBothGraphs) {
  DualGraph g(3);
  g.add_reliable_edge(0, 1);
  g.finalize();
  EXPECT_TRUE(g.has_reliable_edge(0, 1));
  EXPECT_TRUE(g.has_gprime_edge(0, 1));
  EXPECT_FALSE(g.has_reliable_edge(0, 2));
}

TEST(DualGraph, UnreliableEdgesOnlyInGPrime) {
  DualGraph g(3);
  g.add_unreliable_edge(0, 1);
  g.finalize();
  EXPECT_FALSE(g.has_reliable_edge(0, 1));
  EXPECT_TRUE(g.has_gprime_edge(0, 1));
  EXPECT_EQ(g.unreliable_edge_count(), 1u);
  EXPECT_EQ(g.unreliable_edge(0).u, 0u);
  EXPECT_EQ(g.unreliable_edge(0).v, 1u);
}

TEST(DualGraph, AddsAreIdempotent) {
  DualGraph g(2);
  g.add_reliable_edge(0, 1);
  g.add_reliable_edge(1, 0);
  g.finalize();
  EXPECT_EQ(g.g_neighbors(0).size(), 1u);
  EXPECT_EQ(g.gprime_neighbors(0).size(), 1u);
}

TEST(DualGraph, MixingEdgeClassesAborts) {
  DualGraph g(2);
  g.add_reliable_edge(0, 1);
  EXPECT_DEATH(g.add_unreliable_edge(0, 1), "precondition");
}

TEST(DualGraph, SelfLoopsRejected) {
  DualGraph g(2);
  EXPECT_DEATH(g.add_reliable_edge(1, 1), "precondition");
}

TEST(DualGraph, QueriesBeforeFinalizeAbort) {
  DualGraph g(2);
  g.add_reliable_edge(0, 1);
  EXPECT_DEATH(g.g_neighbors(0), "precondition");
}

TEST(DualGraph, EdgesAfterFinalizeAbort) {
  DualGraph g(3);
  g.finalize();
  EXPECT_DEATH(g.add_reliable_edge(0, 1), "precondition");
}

TEST(DualGraph, DegreeBoundsCountSelfPlusNeighbors) {
  DualGraph g(4);  // star around 0 plus an unreliable 1-2 edge
  g.add_reliable_edge(0, 1);
  g.add_reliable_edge(0, 2);
  g.add_reliable_edge(0, 3);
  g.add_unreliable_edge(1, 2);
  g.finalize();
  EXPECT_EQ(g.delta(), 4u);        // |N_G(0) u {0}|
  EXPECT_EQ(g.delta_prime(), 4u);  // same vertex dominates
}

TEST(DualGraph, UnreliableIncidentListsBothEndpoints) {
  DualGraph g(3);
  g.add_unreliable_edge(0, 2);
  g.finalize();
  ASSERT_EQ(g.unreliable_incident(0).size(), 1u);
  ASSERT_EQ(g.unreliable_incident(2).size(), 1u);
  EXPECT_EQ(g.unreliable_incident(0)[0].second, 2u);
  EXPECT_EQ(g.unreliable_incident(2)[0].second, 0u);
  EXPECT_EQ(g.unreliable_incident(0)[0].first,
            g.unreliable_incident(2)[0].first);
}

// ---- generators: property sweeps ----

class GeometricProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GeometricProperty, RandomGeometricIsRGeographic) {
  Rng rng(GetParam());
  GeometricSpec spec;
  spec.n = 40;
  spec.side = 3.0;
  spec.r = 1.5;
  const DualGraph g = random_geometric(spec, rng);
  ASSERT_TRUE(g.embedding().has_value());
  EXPECT_TRUE(is_r_geographic(g, *g.embedding(), spec.r));
}

TEST_P(GeometricProperty, DeltaPrimeBoundedByCrDelta) {
  // Lemma A.3: Delta' <= c_r * Delta for r-geographic dual graphs.
  Rng rng(GetParam() ^ 0xabcdef);
  GeometricSpec spec;
  spec.n = 60;
  spec.side = 4.0;
  spec.r = 2.0;
  const DualGraph g = random_geometric(spec, rng);
  const geo::GridPartition part(0.5, spec.r);
  EXPECT_LE(g.delta_prime(), part.cr_bound() * g.delta());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GeometricProperty,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(Generators, GridHasExpectedStructure) {
  const DualGraph g = grid(4, 3, 1.0, 1.5);
  EXPECT_EQ(g.size(), 12u);
  // spacing 1.0: orthogonal neighbors reliable.
  EXPECT_TRUE(g.has_reliable_edge(0, 1));
  EXPECT_TRUE(g.has_reliable_edge(0, 4));
  // diagonal at sqrt(2) ~ 1.414 <= r: unreliable.
  EXPECT_FALSE(g.has_reliable_edge(0, 5));
  EXPECT_TRUE(g.has_gprime_edge(0, 5));
  EXPECT_TRUE(is_r_geographic(g, *g.embedding(), 1.5));
}

TEST(Generators, CliqueClusterIsComplete) {
  const DualGraph g = clique_cluster(8);
  for (Vertex u = 0; u < 8; ++u) {
    EXPECT_EQ(g.g_neighbors(u).size(), 7u);
  }
  EXPECT_EQ(g.delta(), 8u);
  EXPECT_EQ(g.unreliable_edge_count(), 0u);
}

TEST(Generators, StarRingHubSeesAllLeaves) {
  const std::size_t leaves = 16;
  const DualGraph g = star_ring(leaves, 1.5);
  EXPECT_EQ(g.g_neighbors(0).size(), leaves);
  EXPECT_EQ(g.delta(), leaves + 1);
  EXPECT_TRUE(is_r_geographic(g, *g.embedding(), 1.5));
}

TEST(Generators, LineIsAPath) {
  const DualGraph g = line(6, 1.0, 1.5);
  EXPECT_TRUE(g.has_reliable_edge(0, 1));
  EXPECT_FALSE(g.has_reliable_edge(0, 2));
  EXPECT_FALSE(g.has_gprime_edge(0, 3));  // distance 3 > r
  EXPECT_TRUE(is_r_geographic(g, *g.embedding(), 1.5));
}

TEST(Generators, LineGreyZoneIsUnreliable) {
  // spacing 0.75: distance-2 pairs at 1.5 (= r) fall in the grey zone and
  // the generator wires them as unreliable.
  const DualGraph g = line(5, 0.75, 1.5);
  EXPECT_TRUE(g.has_reliable_edge(0, 1));
  EXPECT_TRUE(g.has_gprime_edge(0, 2));
  EXPECT_FALSE(g.has_reliable_edge(0, 2));
}

TEST(Generators, BridgedClustersCrossEdgesAllUnreliable) {
  const DualGraph g = bridged_clusters(5, 1.5);
  EXPECT_EQ(g.size(), 10u);
  for (Vertex a = 0; a < 5; ++a) {
    for (Vertex b = 5; b < 10; ++b) {
      EXPECT_FALSE(g.has_reliable_edge(a, b));
      EXPECT_TRUE(g.has_gprime_edge(a, b))
          << "bridge pair " << a << "," << b;
    }
  }
  // Within a cluster: all reliable.
  EXPECT_TRUE(g.has_reliable_edge(0, 1));
  EXPECT_TRUE(g.has_reliable_edge(5, 6));
  EXPECT_TRUE(is_r_geographic(g, *g.embedding(), 1.5));
}

TEST(Generators, GeneratedGraphsAreDeterministicPerSeed) {
  Rng rng1(55), rng2(55);
  GeometricSpec spec;
  spec.n = 30;
  const DualGraph a = random_geometric(spec, rng1);
  const DualGraph b = random_geometric(spec, rng2);
  ASSERT_EQ(a.size(), b.size());
  const auto same = [](std::span<const Vertex> x, std::span<const Vertex> y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end());
  };
  for (Vertex v = 0; v < a.size(); ++v) {
    EXPECT_TRUE(same(a.g_neighbors(v), b.g_neighbors(v)));
    EXPECT_TRUE(same(a.gprime_neighbors(v), b.gprime_neighbors(v)));
  }
}

TEST(IsRGeographic, DetectsMissingReliableEdge) {
  // Two nodes at distance 0.5 with no edge: violates condition 1.
  DualGraph g(2);
  g.set_embedding({{0.0, 0.0}, {0.5, 0.0}}, 1.5);
  g.finalize();
  EXPECT_FALSE(is_r_geographic(g, *g.embedding(), 1.5));
}

TEST(IsRGeographic, DetectsTooLongEdge) {
  // Edge between nodes at distance 3 > r: violates condition 2.
  DualGraph g(2);
  g.add_unreliable_edge(0, 1);
  g.set_embedding({{0.0, 0.0}, {3.0, 0.0}}, 1.5);
  g.finalize();
  EXPECT_FALSE(is_r_geographic(g, *g.embedding(), 1.5));
}


TEST(IsRGeographic, NonFiniteEmbeddingAborts) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  DualGraph g(2);
  EXPECT_DEATH(g.set_embedding({{0.0, 0.0}, {nan, 0.0}}, 1.5), "precondition");
  EXPECT_DEATH(g.set_embedding({{inf, 0.0}, {0.0, 0.0}}, 1.5), "precondition");
  g.finalize();
  EXPECT_DEATH(is_r_geographic(g, {{0.0, 0.0}, {0.0, -inf}}, 1.5),
               "precondition");
  EXPECT_DEATH(is_r_geographic(g, {{nan, nan}, {0.0, 0.0}}, 1.5),
               "precondition");
}

TEST(IsRGeographic, FarApartPointsValidateInSmallGrid) {
  // 10^9 / r cells per axis would not fit in memory; the bucket grid is
  // capped at O(n) cells, so these build and validate instantly.
  for (const geo::Point far : {geo::Point{1e9, 0.0}, geo::Point{1e9, 1e9},
                               geo::Point{-1e9, 1e9}}) {
    DualGraph g(2);
    g.set_embedding({{0.0, 0.0}, far}, 1.5);
    g.finalize();
    EXPECT_TRUE(is_r_geographic(g, *g.embedding(), 1.5));
  }
}

// ---- bucketed wiring and validation vs the all-pairs scans ----
//
// Test-local copies of the all-pairs wiring and validation the graph layer
// used before the bucketed near-pair walk, and of grid()'s former
// bounded-offset lattice path: the oracles the differential tests below
// hold the generators and is_r_geographic to.

template <typename GreyFn>
void all_pairs_wire(DualGraph& g, const geo::Embedding& pts, double r,
                    GreyFn&& grey_decision) {
  const auto n = static_cast<Vertex>(pts.size());
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      const double d = geo::distance(pts[u], pts[v]);
      if (d <= 1.0) {
        g.add_reliable_edge(u, v);
      } else if (d <= r) {
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
      }
    }
  }
}

bool all_pairs_is_r_geographic(const DualGraph& g,
                               const geo::Embedding& embedding, double r) {
  const auto n = static_cast<Vertex>(g.size());
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      const double d = geo::distance(embedding[u], embedding[v]);
      if (d <= 1.0 && !g.has_reliable_edge(u, v)) return false;
      if (d > r && g.has_gprime_edge(u, v)) return false;
    }
  }
  return true;
}

DualGraph all_pairs_random_geometric(const GeometricSpec& spec, Rng& rng) {
  geo::Embedding pts(spec.n);
  for (auto& p : pts) {
    p = geo::Point{rng.uniform(0.0, spec.side), rng.uniform(0.0, spec.side)};
  }
  DualGraph g(spec.n);
  all_pairs_wire(g, pts, spec.r, [&](Vertex, Vertex, double) {
    if (rng.chance(spec.p_grey_reliable)) return 1;
    if (rng.chance(spec.p_grey_unreliable)) return 2;
    return 0;
  });
  g.set_embedding(std::move(pts), spec.r);
  g.finalize();
  return g;
}

DualGraph lattice_grid(std::size_t cols, std::size_t rows, double spacing,
                       double r) {
  const std::size_t n = cols * rows;
  geo::Embedding pts(n);
  for (std::size_t j = 0; j < rows; ++j) {
    for (std::size_t i = 0; i < cols; ++i) {
      pts[j * cols + i] = geo::Point{i * spacing, j * spacing};
    }
  }
  DualGraph g(n);
  const auto reach = static_cast<std::ptrdiff_t>(std::ceil(r / spacing));
  const auto icols = static_cast<std::ptrdiff_t>(cols);
  const auto irows = static_cast<std::ptrdiff_t>(rows);
  std::vector<Vertex> candidates;
  for (std::ptrdiff_t j = 0; j < irows; ++j) {
    for (std::ptrdiff_t i = 0; i < icols; ++i) {
      const Vertex u = static_cast<Vertex>(j * icols + i);
      candidates.clear();
      for (std::ptrdiff_t dj = 0; dj <= reach; ++dj) {
        const std::ptrdiff_t j2 = j + dj;
        if (j2 >= irows) break;
        for (std::ptrdiff_t di = (dj == 0 ? 1 : -reach); di <= reach; ++di) {
          const std::ptrdiff_t i2 = i + di;
          if (i2 < 0 || i2 >= icols) continue;
          candidates.push_back(static_cast<Vertex>(j2 * icols + i2));
        }
      }
      std::sort(candidates.begin(), candidates.end());
      for (const Vertex v : candidates) {
        const double d = geo::distance(pts[u], pts[v]);
        if (d <= 1.0) {
          g.add_reliable_edge(u, v);
        } else if (d <= r) {
          g.add_unreliable_edge(u, v);
        }
      }
    }
  }
  g.set_embedding(std::move(pts), r);
  g.finalize();
  return g;
}

/// Rewires a generated graph's own embedding with the all-pairs oracle,
/// classifying every grey pair as `grey` (0 absent, 2 unreliable).
DualGraph all_pairs_rewire(const DualGraph& g, int grey) {
  DualGraph out(g.size());
  all_pairs_wire(out, *g.embedding(), g.r(),
                 [grey](Vertex, Vertex, double) { return grey; });
  out.set_embedding(*g.embedding(), g.r());
  out.finalize();
  return out;
}

/// G and G' adjacency, unreliable incidence and unreliable-edge ids in order.
void expect_same_graph(const DualGraph& a, const DualGraph& b) {
  ASSERT_EQ(a.size(), b.size());
  for (Vertex v = 0; v < a.size(); ++v) {
    ASSERT_TRUE(std::ranges::equal(a.g_neighbors(v), b.g_neighbors(v)))
        << "G adjacency of " << v;
    ASSERT_TRUE(std::ranges::equal(a.gprime_neighbors(v),
                                   b.gprime_neighbors(v)))
        << "G' adjacency of " << v;
    ASSERT_TRUE(std::ranges::equal(a.unreliable_incident(v),
                                   b.unreliable_incident(v)))
        << "unreliable incidence of " << v;
  }
  ASSERT_EQ(a.unreliable_edge_count(), b.unreliable_edge_count());
  for (UnreliableEdgeId id = 0; id < a.unreliable_edge_count(); ++id) {
    ASSERT_EQ(a.unreliable_edge(id).u, b.unreliable_edge(id).u) << "id " << id;
    ASSERT_EQ(a.unreliable_edge(id).v, b.unreliable_edge(id).v) << "id " << id;
  }
}

TEST(BucketedWiring, RandomGeometricMatchesAllPairs) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    for (const double p_rel : {0.0, 0.5, 1.0}) {
      for (const double p_unrel : {0.0, 0.5, 1.0}) {
        GeometricSpec spec;
        spec.n = 240;
        spec.side = 7.0;
        spec.r = 1.0 + 0.5 * static_cast<double>(seed % 3);  // 1, 1.5, 2
        spec.p_grey_reliable = p_rel;
        spec.p_grey_unreliable = p_unrel;
        SCOPED_TRACE(::testing::Message() << "seed " << seed << " p_rel "
                                          << p_rel << " p_unrel " << p_unrel);
        Rng got_rng(seed), want_rng(seed);
        const DualGraph got = random_geometric(spec, got_rng);
        const DualGraph want = all_pairs_random_geometric(spec, want_rng);
        expect_same_graph(got, want);
        // The grey-zone draws consumed the stream identically.
        EXPECT_EQ(got_rng.bits(), want_rng.bits());
        EXPECT_TRUE(is_r_geographic(got, *got.embedding(), spec.r));
        EXPECT_TRUE(all_pairs_is_r_geographic(got, *got.embedding(), spec.r));
      }
    }
  }
}

TEST(BucketedWiring, GridMatchesLatticePathAndAllPairs) {
  struct Shape {
    std::size_t cols, rows;
    double spacing, r;
  };
  for (const Shape s : {Shape{37, 11, 0.75, 1.5}, Shape{20, 20, 0.5, 2.0},
                        Shape{16, 16, 1.0, 1.5}, Shape{1, 9, 0.3, 1.0}}) {
    SCOPED_TRACE(::testing::Message() << s.cols << "x" << s.rows);
    const DualGraph got = grid(s.cols, s.rows, s.spacing, s.r);
    expect_same_graph(got, lattice_grid(s.cols, s.rows, s.spacing, s.r));
    expect_same_graph(got, all_pairs_rewire(got, 2));
    EXPECT_TRUE(is_r_geographic(got, *got.embedding(), s.r));
    EXPECT_TRUE(all_pairs_is_r_geographic(got, *got.embedding(), s.r));
  }
  // The grid_sparse benchmark topology; all-pairs would be 2*10^9 pairs.
  const DualGraph big = grid(256, 256, 1.0, 1.5);
  expect_same_graph(big, lattice_grid(256, 256, 1.0, 1.5));
  EXPECT_TRUE(is_r_geographic(big, *big.embedding(), 1.5));
}

TEST(BucketedWiring, FixedFamiliesMatchAllPairs) {
  struct Case {
    const char* name;
    DualGraph g;
    int grey;
  };
  Case cases[] = {
      {"line", line(300, 0.4, 2.0), 2},
      {"line sparse", line(50, 1.7, 1.5), 2},
      {"star_ring", star_ring(64, 1.5), 0},
      {"star_ring small", star_ring(5, 2.0), 0},
      {"bridged_clusters", bridged_clusters(100, 1.5), 2},
      {"bridged_clusters wide", bridged_clusters(30, 2.5), 2},
      {"clique_cluster", clique_cluster(200), 0},
      {"clique_cluster single", clique_cluster(1), 0},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    expect_same_graph(c.g, all_pairs_rewire(c.g, c.grey));
    EXPECT_TRUE(is_r_geographic(c.g, *c.g.embedding(), c.g.r()));
    EXPECT_TRUE(all_pairs_is_r_geographic(c.g, *c.g.embedding(), c.g.r()));
  }
}

// ---- is_r_geographic boundaries, each inside a >= 200-vertex embedding ----

/// (i * spacing, j * spacing) for i, j in [lo, hi], row-major.
geo::Embedding lattice(int lo, int hi, double spacing) {
  geo::Embedding pts;
  for (int j = lo; j <= hi; ++j) {
    for (int i = lo; i <= hi; ++i) pts.push_back({i * spacing, j * spacing});
  }
  return pts;
}

/// Wires `pts` as the all-pairs oracle would at radius r (grey pairs
/// unreliable), except that the pair {a, b}, a < b, gets `kind` (0 absent,
/// 1 reliable, 2 unreliable) whatever its distance; then checks that the
/// bucketed validator and the all-pairs oracle both return `valid`.
void expect_verdict(const geo::Embedding& pts, double r, Vertex a, Vertex b,
                    int kind, bool valid) {
  const auto n = static_cast<Vertex>(pts.size());
  DualGraph g(n);
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      const double d = geo::distance(pts[u], pts[v]);
      const int k = (u == a && v == b) ? kind : d <= 1.0 ? 1 : d <= r ? 2 : 0;
      if (k == 1) g.add_reliable_edge(u, v);
      if (k == 2) g.add_unreliable_edge(u, v);
    }
  }
  g.set_embedding(pts, r);
  g.finalize();
  EXPECT_EQ(is_r_geographic(g, pts, r), valid) << "pair " << a << "," << b;
  EXPECT_EQ(all_pairs_is_r_geographic(g, pts, r), valid)
      << "pair " << a << "," << b;
}

TEST(IsRGeographic, PairAtExactlyOneNeedsReliableEdge) {
  // 15x15 unit lattice centred on the origin: vertex 112 is (0, 0), 113 is
  // (1, 0) and 127 is (0, 1) -- both exactly 1 away.
  const geo::Embedding pts = lattice(-7, 7, 1.0);
  ASSERT_EQ(geo::distance(pts[112], pts[113]), 1.0);
  ASSERT_EQ(geo::distance(pts[112], pts[127]), 1.0);
  for (const Vertex b : {113u, 127u}) {
    expect_verdict(pts, 1.5, 112, b, /*kind=*/1, true);
    expect_verdict(pts, 1.5, 112, b, /*kind=*/2, false);
    expect_verdict(pts, 1.5, 112, b, /*kind=*/0, false);
  }
}

TEST(IsRGeographic, GPrimeEdgeUpToExactlyR) {
  const double r = 1.5;
  geo::Embedding pts = lattice(-7, 7, 0.75);
  const auto p = static_cast<Vertex>(pts.size());
  pts.push_back({0.0, 0.3});
  pts.push_back({r, 0.3});
  pts.push_back({std::nextafter(r, std::numeric_limits<double>::infinity()),
                 0.3});
  ASSERT_EQ(geo::distance(pts[p], pts[p + 1]), r);
  ASSERT_GT(geo::distance(pts[p], pts[p + 2]), r);
  expect_verdict(pts, r, p, p + 1, /*kind=*/2, true);
  expect_verdict(pts, r, p, p + 2, /*kind=*/2, false);
  expect_verdict(pts, r, p, p + 2, /*kind=*/1, false);
  expect_verdict(pts, r, p, p + 2, /*kind=*/0, true);
  // Lattice pairs two steps apart sit at exactly r too: (0, 0) -- (1.5, 0).
  ASSERT_EQ(geo::distance(pts[112], pts[114]), r);
  expect_verdict(pts, r, 112, 114, /*kind=*/2, true);
}

TEST(IsRGeographic, CoincidentPointsNeedReliableEdge) {
  geo::Embedding pts = lattice(-7, 7, 1.0);
  const auto twin = static_cast<Vertex>(pts.size());
  pts.push_back(pts[112]);
  expect_verdict(pts, 1.5, 112, twin, /*kind=*/1, true);
  expect_verdict(pts, 1.5, 112, twin, /*kind=*/2, false);
  expect_verdict(pts, 1.5, 112, twin, /*kind=*/0, false);
}

TEST(IsRGeographic, NegativeCoordinates) {
  // A random cloud entirely in the third quadrant: dropping the reliable
  // edge of any within-1 pair must be caught.
  Rng rng(17);
  geo::Embedding pts(220);
  for (auto& p : pts) {
    p = geo::Point{rng.uniform(-30.0, -3.0), rng.uniform(-30.0, -3.0)};
  }
  std::size_t checked = 0;
  for (Vertex u = 0; u < pts.size(); ++u) {
    for (Vertex v = u + 1; v < pts.size(); ++v) {
      if (geo::distance(pts[u], pts[v]) > 1.0) continue;
      expect_verdict(pts, 2.0, u, v, /*kind=*/0, false);
      ++checked;
    }
  }
  EXPECT_GT(checked, 20u);
  const double d01 = geo::distance(pts[0], pts[1]);
  expect_verdict(pts, 2.0, 0, 1, d01 <= 1.0 ? 1 : d01 <= 2.0 ? 2 : 0, true);
}

TEST(IsRGeographic, PairsAcrossBucketCellBoundaries) {
  // Condition (1) buckets points into cells of side 1 + 1e-9 + 1e-15 n
  // (for_each_pair_within at r = 1).  Put 102 points exactly on cell
  // corners and one companion 1.0 to the right of each, so every within-1
  // pair straddles a cell boundary; dropping any one must be caught.
  const std::size_t n = 204;
  const double side = 1.0 + 1e-9 + 1e-15 * static_cast<double>(n);
  geo::Embedding pts;
  for (int j = 0; j < 6; ++j) {
    for (int k = -8; k <= 8; ++k) {
      pts.push_back({k * side, j * side});
      pts.push_back({k * side + 1.0, j * side});
    }
  }
  ASSERT_EQ(pts.size(), n);
  std::size_t checked = 0;
  for (Vertex u = 0; u < n; ++u) {
    for (Vertex v = u + 1; v < n; ++v) {
      if (geo::distance(pts[u], pts[v]) > 1.0) continue;
      expect_verdict(pts, 1.5, u, v, /*kind=*/0, false);
      ++checked;
    }
  }
  EXPECT_GE(checked, 96u);  // 16 companion-to-next-corner pairs per row
  const double d01 = geo::distance(pts[0], pts[1]);
  expect_verdict(pts, 1.5, 0, 1, d01 <= 1.0 ? 1 : 2, true);
}

// ---- million-vertex sweeps: the `slow` ctest entry graph_slow_test runs
// these DISABLED_ tests; tier1 skips them ----

TEST(BucketedWiring, DISABLED_Grid1000x1000MatchesLatticePath) {
  const DualGraph got = grid(1000, 1000, 1.0, 1.5);
  expect_same_graph(got, lattice_grid(1000, 1000, 1.0, 1.5));
  EXPECT_TRUE(is_r_geographic(got, *got.embedding(), 1.5));
}

TEST(BucketedWiring, DISABLED_MillionVertexGeometricBuildsAndValidates) {
  // geo_dense's density (16384 points on an 80 x 80 square) at n = 10^6.
  Rng rng(1);
  GeometricSpec spec;
  spec.n = 1'000'000;
  spec.side = 625.0;
  const DualGraph g = random_geometric(spec, rng);
  EXPECT_TRUE(is_r_geographic(g, *g.embedding(), spec.r));
  EXPECT_GT(g.delta(), 1u);
  EXPECT_LT(g.delta_prime(), 100u);
}

}  // namespace
}  // namespace dg::graph
