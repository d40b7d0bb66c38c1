// Tests for the plane geometry and the Appendix A region partition:
// half-open cell assignment, region-graph adjacency, and the f-boundedness
// property of Lemmas A.1 / A.2; plus the bucketed near-pair walk against a
// nested all-pairs loop.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <tuple>
#include <vector>

#include "geo/near_pairs.h"
#include "geo/point.h"
#include "geo/region_partition.h"
#include "util/rng.h"

namespace dg::geo {
namespace {

TEST(Point, Distance) {
  EXPECT_DOUBLE_EQ(distance({0, 0}, {3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(distance({1, 1}, {1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(distance_sq({0, 0}, {2, 0}), 4.0);
}

TEST(GridPartition, CellAssignmentIsHalfOpen) {
  GridPartition part(0.5, 1.0);
  // [0, 0.5) x [0, 0.5) is cell (0, 0); the boundary 0.5 belongs to the
  // next cell -- the "partition, not cover" rule of Lemma A.1.
  EXPECT_EQ(part.region_of({0.0, 0.0}), (RegionId{0, 0}));
  EXPECT_EQ(part.region_of({0.49999, 0.49999}), (RegionId{0, 0}));
  EXPECT_EQ(part.region_of({0.5, 0.0}), (RegionId{1, 0}));
  EXPECT_EQ(part.region_of({0.0, 0.5}), (RegionId{0, 1}));
  EXPECT_EQ(part.region_of({-0.1, -0.1}), (RegionId{-1, -1}));
}

TEST(GridPartition, RegionDiameterAtMostOne) {
  // Lemma A.1 condition 1: any two points of one region are within
  // distance 1.  For a half-open square of side s the diameter is s*sqrt(2).
  GridPartition part(0.5, 1.0);
  EXPECT_LE(part.side() * std::sqrt(2.0), 1.0);
}

TEST(GridPartition, SideAboveDiameterBoundRejected) {
  EXPECT_DEATH(GridPartition(0.8, 1.0), "precondition");
}

TEST(GridPartition, CornerInvertsRegionOf) {
  GridPartition part(0.5, 2.0);
  const RegionId id{3, -2};
  const Point c = part.corner(id);
  EXPECT_EQ(part.region_of(c), id);
}

TEST(GridPartition, MinCellDistanceZeroForTouching) {
  GridPartition part(0.5, 1.0);
  EXPECT_DOUBLE_EQ(part.min_cell_distance({0, 0}, {0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(part.min_cell_distance({0, 0}, {1, 0}), 0.0);
  EXPECT_DOUBLE_EQ(part.min_cell_distance({0, 0}, {1, 1}), 0.0);
}

TEST(GridPartition, MinCellDistanceForSeparatedCells) {
  GridPartition part(0.5, 1.0);
  // Cells (0,0) and (2,0): one whole cell of gap -> 0.5.
  EXPECT_DOUBLE_EQ(part.min_cell_distance({0, 0}, {2, 0}), 0.5);
  // Diagonal gap: sqrt(0.5^2 + 0.5^2).
  EXPECT_DOUBLE_EQ(part.min_cell_distance({0, 0}, {2, 2}),
                   std::sqrt(0.5));
}

// The SINR bucket grid (phys/sinr.h) buckets arbitrary deployments, so the
// negative-quadrant and cell-boundary paths are load-bearing, not just
// analysis corner cases.

TEST(GridPartition, RegionOfAtNegativeBoundaries) {
  GridPartition part(0.5, 1.0);
  // Half-open rule on the negative axes: -0.5 starts cell -1, and any
  // negative epsilon already belongs to cell -1 (floor, not truncation).
  EXPECT_EQ(part.region_of({-0.5, 0.0}), (RegionId{-1, 0}));
  EXPECT_EQ(part.region_of({-1e-12, -1e-12}), (RegionId{-1, -1}));
  EXPECT_EQ(part.region_of({-0.50001, -1.0}), (RegionId{-2, -2}));
  EXPECT_EQ(part.corner({-3, -2}), (Point{-1.5, -1.0}));
}

TEST(GridPartition, MinCellDistanceIsTranslationInvariant) {
  GridPartition part(0.5, 1.0);
  // Shifting both cells by the same offset (into and across the negative
  // quadrant) must not change the gap.
  for (const std::int32_t dx : {-7, -1, 0, 3}) {
    for (const std::int32_t dy : {-4, 0, 5}) {
      EXPECT_DOUBLE_EQ(
          part.min_cell_distance({dx, dy}, {dx + 3, dy}),
          part.min_cell_distance({0, 0}, {3, 0}))
          << "offset " << dx << "," << dy;
      EXPECT_DOUBLE_EQ(
          part.min_cell_distance({dx, dy}, {dx + 2, dy + 3}),
          part.min_cell_distance({0, 0}, {2, 3}))
          << "offset " << dx << "," << dy;
    }
  }
}

TEST(GridPartition, MinCellDistanceAcrossTheOrigin) {
  GridPartition part(0.5, 1.0);
  // Cells {-2,0} and {1,0}: indices 3 apart -> 2 whole cells of gap.
  EXPECT_DOUBLE_EQ(part.min_cell_distance({-2, 0}, {1, 0}), 1.0);
  // Touching across the origin (indices -1 and 0) -> 0.
  EXPECT_DOUBLE_EQ(part.min_cell_distance({-1, -1}, {0, 0}), 0.0);
  EXPECT_DOUBLE_EQ(part.min_cell_distance({-1, 2}, {0, 2}), 0.0);
  // Symmetry in the arguments.
  EXPECT_DOUBLE_EQ(part.min_cell_distance({-5, -3}, {2, 4}),
                   part.min_cell_distance({2, 4}, {-5, -3}));
}

TEST(GridPartition, AdjacencyAtNegativeCoordinates) {
  GridPartition part(0.5, 1.5);
  // The region-graph neighborhood must be identical in every quadrant.
  const auto at_origin = part.neighbors({0, 0}).size();
  EXPECT_EQ(part.neighbors({-6, -9}).size(), at_origin);
  EXPECT_EQ(part.neighbors({-1, 4}).size(), at_origin);
  // Touching cells across the axis are adjacent; cells separated by more
  // than r are not.
  EXPECT_TRUE(part.adjacent({-1, 0}, {0, 0}));
  EXPECT_TRUE(part.adjacent({-2, -2}, {1, -2}));  // gap 1.0 <= r
  EXPECT_TRUE(part.adjacent({-4, 0}, {0, 0}));    // gap 1.5 == r (closed)
  EXPECT_FALSE(part.adjacent({-5, 0}, {0, 0}));   // gap 2.0 > r
}

TEST(GridPartition, AdjacencyExactlyAtTheRadius) {
  // Gap of exactly r counts as adjacent (closed condition d <= r).
  GridPartition part(0.5, 1.0);
  EXPECT_TRUE(part.adjacent({-3, 0}, {0, 0}));   // gap = 2 cells = 1.0 == r
  EXPECT_FALSE(part.adjacent({-4, 0}, {0, 0}));  // gap = 3 cells = 1.5 > r
}

TEST(GridPartition, AdjacencyIsSymmetricAndIrreflexive) {
  GridPartition part(0.5, 1.5);
  const RegionId a{0, 0};
  EXPECT_FALSE(part.adjacent(a, a));
  for (const RegionId& b : part.neighbors(a)) {
    EXPECT_TRUE(part.adjacent(b, a));
  }
}

TEST(GridPartition, NeighborsWithinCrBound) {
  // Lemma A.2: any region has at most c_r - 1 neighbors in G_{R,r}.
  for (double r : {1.0, 1.5, 2.0, 3.0}) {
    GridPartition part(0.5, r);
    const auto neighbors = part.neighbors({0, 0});
    EXPECT_LE(neighbors.size() + 1, part.cr_bound())
        << "r=" << r;
    EXPECT_GE(neighbors.size(), 8u);  // at least the 8 touching cells
  }
}

TEST(GridPartition, CountWithinZeroHopsIsOne) {
  GridPartition part(0.5, 1.0);
  EXPECT_EQ(part.count_within_hops({5, 5}, 0), 1u);
}

// f-boundedness sweep (Lemma A.2): the number of regions within h hops is
// at most c_r * h^2 with c_r = cr_bound() (which is Theta(r^2)).
class FBoundedness : public ::testing::TestWithParam<double> {};

TEST_P(FBoundedness, CountGrowsAtMostQuadratically) {
  const double r = GetParam();
  GridPartition part(0.5, r);
  const std::size_t cr = part.cr_bound();
  for (int h = 1; h <= 3; ++h) {
    const std::size_t count = part.count_within_hops({0, 0}, h);
    EXPECT_LE(count, cr * static_cast<std::size_t>(h) *
                         static_cast<std::size_t>(h))
        << "r=" << r << " h=" << h;
    // And it genuinely grows with h (sanity against vacuous bounds).
    if (h > 1) {
      EXPECT_GT(count, part.count_within_hops({0, 0}, h - 1));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Radii, FBoundedness,
                         ::testing::Values(1.0, 1.25, 1.5, 2.0, 2.5, 3.0));

TEST(GridPartition, ForEachWithinHopsReportsHopCounts) {
  GridPartition part(0.5, 1.0);
  int zero_hop = 0;
  int max_hop = 0;
  part.for_each_within_hops({0, 0}, 2,
                            [&](const RegionId&, int hops) {
                              if (hops == 0) ++zero_hop;
                              max_hop = std::max(max_hop, hops);
                            });
  EXPECT_EQ(zero_hop, 1);
  EXPECT_EQ(max_hop, 2);
}

TEST(RegionIdHash, DistinguishesNearbyCells) {
  RegionIdHash h;
  EXPECT_NE(h({0, 1}), h({1, 0}));
  EXPECT_EQ(h({3, 4}), h({3, 4}));
}


// ---- for_each_pair_within ----

using PairVisit = std::tuple<std::uint32_t, std::uint32_t, double>;

std::vector<PairVisit> walk(const Embedding& pts, double r) {
  std::vector<PairVisit> out;
  for_each_pair_within(pts, r, [&](std::uint32_t u, std::uint32_t v,
                                   double d) { out.emplace_back(u, v, d); });
  return out;
}

std::vector<PairVisit> nested_loop(const Embedding& pts, double r) {
  std::vector<PairVisit> out;
  for (std::uint32_t u = 0; u < pts.size(); ++u) {
    for (std::uint32_t v = u + 1; v < pts.size(); ++v) {
      const double d = distance(pts[u], pts[v]);
      if (d <= r) out.emplace_back(u, v, d);
    }
  }
  return out;
}

TEST(ForEachPairWithin, MatchesNestedLoopOrderAndDistances) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed);
    Embedding pts(300);
    for (auto& p : pts) {
      // Snapped to a 1/8 lattice so coincident points and pairs at exactly
      // the radius occur.
      p = Point{std::floor(rng.uniform(-4.0, 4.0) * 8.0) / 8.0,
                std::floor(rng.uniform(-2.0, 6.0) * 8.0) / 8.0};
    }
    for (const double r : {0.0, 0.125, 0.5, 1.0, 1.5, 2.5, 100.0}) {
      EXPECT_EQ(walk(pts, r), nested_loop(pts, r))
          << "seed " << seed << " r " << r;
    }
  }
}

TEST(ForEachPairWithin, DegenerateEmbeddings) {
  EXPECT_TRUE(walk({}, 1.0).empty());
  EXPECT_TRUE(walk({{3.0, 4.0}}, 1.0).empty());
  const Embedding same(5, Point{-1.0, 2.0});
  EXPECT_EQ(walk(same, 0.0).size(), 10u);  // every pair coincides
  const Embedding on_a_line = {{0.0, 0.0}, {1.0, 0.0}, {2.5, 0.0}, {3.0, 0.0}};
  EXPECT_EQ(walk(on_a_line, 1.0), nested_loop(on_a_line, 1.0));
}

TEST(ForEachPairWithin, ExtremeExtentsNeedFewCells) {
  // The cell grid grows with n, not with extent / r: an extent of 2*10^300
  // makes a 3-cell grid, and one that overflows to inf a single cell.
  EXPECT_EQ(walk({{-1e300, 1e300}, {1e300, -1e300}, {1e300, -1e300}}, 1.0)
                .size(),
            1u);
  EXPECT_EQ(walk({{-1.7e308, 0.0}, {1.7e308, 0.0}, {1.7e308, 0.0}}, 1.0).size(),
            1u);
}

TEST(ForEachPairWithin, NonFiniteCoordinateAborts) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_DEATH(walk({{0.0, 0.0}, {nan, 0.0}}, 1.0), "precondition");
  EXPECT_DEATH(walk({{0.0, -inf}, {0.0, 0.0}}, 1.0), "precondition");
}

}  // namespace
}  // namespace dg::geo
