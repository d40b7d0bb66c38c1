// Plane geometry primitives for r-geographic dual graphs (paper Section 2).
#pragma once

#include <cmath>
#include <vector>

namespace dg::geo {

struct Point {
  double x = 0.0;
  double y = 0.0;

  friend bool operator==(const Point&, const Point&) = default;
};

/// True iff both coordinates are finite (no NaN, no infinity): the
/// precondition of every embedding the graph layer accepts.
inline bool is_finite(const Point& p) noexcept {
  return std::isfinite(p.x) && std::isfinite(p.y);
}

inline double distance_sq(const Point& a, const Point& b) noexcept {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

inline double distance(const Point& a, const Point& b) noexcept {
  return std::sqrt(distance_sq(a, b));
}

/// An embedding emb: V -> R^2 assigns a plane position to each graph vertex
/// (vertices are dense indices 0..n-1).
using Embedding = std::vector<Point>;

}  // namespace dg::geo
