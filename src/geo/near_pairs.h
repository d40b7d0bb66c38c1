// Bucketed enumeration of the point pairs within a distance bound: the one
// near-pair walk behind geometric wiring (graph/generators.cpp) and the
// r-geographic validator (graph::is_r_geographic).  An r-geographic dual
// graph only constrains pairs within distance r (paper Section 2), so both
// jobs cost O(n + pairs within r) expected instead of the all-pairs O(n^2)
// -- which is what makes the nightly grid:1000x1000 campaign (10^6 vertices,
// 5*10^11 pairs all-pairs) and a 10^6-vertex random geometric graph
// feasible.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "geo/point.h"
#include "util/assert.h"

namespace dg::geo {

/// Calls visit(u, v, d) for every pair u < v of `pts` with
/// d = geo::distance(pts[u], pts[v]) <= r, in the all-pairs scan's order: u
/// ascending, then v ascending.  Callers that draw randomness per pair
/// therefore consume their stream exactly as a nested u < v loop would, and
/// d is the same floating-point value that loop computes, so boundary
/// decisions are bit-identical to it.
///
/// Points are counting-sorted into a flat grid of square cells (CSR cell
/// offsets); each u probes its 3x3 cell block and sorts the hits by v.  The
/// cell side is at least r * (1 + 1e-9 + 1e-15 n): the slack outgrows the
/// rounding error of a cell index (under 9 * 2^-53 * (2n + 1) cells), so
/// rounding never splits a within-r pair across two non-adjacent cells and
/// the 3x3 probe finds every such pair.  The side also grows with the
/// embedding's extent so the grid never exceeds 2n + 1 cells, whatever the
/// spread of the points (two points 10^9 apart make a 3-cell grid).
///
/// Preconditions: every coordinate is finite (a NaN or infinite point has no
/// cell), r >= 0, and fewer than 2^31 points (so cell ids fit 32 bits).
template <typename Visit>
void for_each_pair_within(const Embedding& pts, double r, Visit&& visit) {
  DG_EXPECTS(r >= 0.0);
  DG_EXPECTS(pts.size() < (std::size_t{1} << 31));
  const auto n = static_cast<std::uint32_t>(pts.size());
  if (n == 0) return;

  double min_x = pts[0].x, max_x = pts[0].x;
  double min_y = pts[0].y, max_y = pts[0].y;
  for (const Point& p : pts) {
    DG_EXPECTS(is_finite(p));
    min_x = std::min(min_x, p.x);
    max_x = std::max(max_x, p.x);
    min_y = std::min(min_y, p.y);
    max_y = std::max(max_y, p.y);
  }
  // cols * rows <= (ex/side + 1) * (ey/side + 1)
  //              = ex*ey/side^2 + (ex+ey)/side + 1 <= 2n + 1,
  // since the second and third max() terms each cap one summand at n.  An
  // extent that overflows to inf makes side inf: all points share one cell.
  const double ex = max_x - min_x;
  const double ey = max_y - min_y;
  const auto dn = static_cast<double>(n);
  const double side = std::max({r * (1.0 + 1e-9 + 1e-15 * dn),
                                std::sqrt(ex / dn) * std::sqrt(ey),
                                (ex + ey) / dn,
                                std::numeric_limits<double>::min()});
  const auto axis_cells = [side](double extent) -> std::size_t {
    const double q = extent / side;
    return q <= std::numeric_limits<std::uint32_t>::max()
               ? static_cast<std::size_t>(q) + 1
               : 1;  // NaN (inf / inf)
  };
  const std::size_t cols = axis_cells(ex);
  const std::size_t rows = axis_cells(ey);
  // Cell coordinate along one axis, clamped into range: the clamp is
  // monotone, so it never pushes a near pair more than one cell apart.
  const auto axis_cell = [side](double offset, std::size_t cells) {
    const double q = offset / side;
    return q < static_cast<double>(cells) ? static_cast<std::size_t>(q)
                                          : cells - 1;
  };

  std::vector<std::uint32_t> cell(n);
  std::vector<std::uint32_t> offsets(cols * rows + 1, 0);
  for (std::uint32_t u = 0; u < n; ++u) {
    cell[u] = static_cast<std::uint32_t>(
        axis_cell(pts[u].y - min_y, rows) * cols +
        axis_cell(pts[u].x - min_x, cols));
    ++offsets[cell[u] + 1];
  }
  for (std::size_t c = 0; c < cols * rows; ++c) offsets[c + 1] += offsets[c];
  // Members in cell order, with their coordinates alongside so a probe
  // reads contiguous memory instead of chasing scattered pts[v].
  std::vector<std::uint32_t> members(n);
  std::vector<Point> member_pts(n);
  {
    std::vector<std::uint32_t> fill(offsets.begin(), offsets.end() - 1);
    for (std::uint32_t u = 0; u < n; ++u) {
      const std::uint32_t slot = fill[cell[u]]++;
      members[slot] = u;
      member_pts[slot] = pts[u];
    }
  }

  struct Hit {
    std::uint32_t v;
    double d;
  };
  std::vector<Hit> hits;
  for (std::uint32_t u = 0; u < n; ++u) {
    hits.clear();
    const std::size_t cx = cell[u] % cols, cy = cell[u] / cols;
    for (std::size_t y = cy == 0 ? 0 : cy - 1; y <= std::min(cy + 1, rows - 1);
         ++y) {
      const std::size_t row = y * cols;
      const std::size_t first = offsets[row + (cx == 0 ? 0 : cx - 1)];
      const std::size_t last = offsets[row + std::min(cx + 1, cols - 1) + 1];
      for (std::size_t i = first; i < last; ++i) {
        if (members[i] <= u) continue;
        const double d = distance(pts[u], member_pts[i]);
        if (d <= r) hits.push_back({members[i], d});
      }
    }
    std::sort(hits.begin(), hits.end(),
              [](const Hit& a, const Hit& b) { return a.v < b.v; });
    for (const Hit& h : hits) visit(u, h.v, h.d);
  }
}

}  // namespace dg::geo
