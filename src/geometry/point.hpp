// 2D geometry primitives shared by placement, hardware, and schedulers.
// Continuous coordinates are in micrometres (um) unless stated otherwise;
// Graphine's annealer works in a normalized [0,1]^2 space that placement
// rescales onto the physical grid.
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>

namespace parallax::geom {

struct Point {
  double x = 0.0;
  double y = 0.0;

  friend constexpr Point operator+(Point a, Point b) noexcept {
    return {a.x + b.x, a.y + b.y};
  }
  friend constexpr Point operator-(Point a, Point b) noexcept {
    return {a.x - b.x, a.y - b.y};
  }
  friend constexpr Point operator*(Point a, double s) noexcept {
    return {a.x * s, a.y * s};
  }
  friend constexpr Point operator*(double s, Point a) noexcept { return a * s; }
  friend constexpr bool operator==(Point a, Point b) noexcept {
    return a.x == b.x && a.y == b.y;
  }

  [[nodiscard]] double norm() const noexcept { return std::hypot(x, y); }
};

[[nodiscard]] inline double distance(Point a, Point b) noexcept {
  return (a - b).norm();
}

[[nodiscard]] inline double distance_sq(Point a, Point b) noexcept {
  const double dx = a.x - b.x;
  const double dy = a.y - b.y;
  return dx * dx + dy * dy;
}

namespace detail {

/// The squared distance beyond which clearly_beyond rules a pair out:
/// r^2 (1 + 1e-9), or +inf (ruling nothing out) when r^2 is not a normal
/// double. A loop that tests many pairs against one r computes it once.
[[nodiscard]] inline double beyond_cutoff(double r) noexcept {
  const double r2 = r * r;
  return std::isnormal(r2) ? r2 * (1.0 + 1e-9)
                           : std::numeric_limits<double>::infinity();
}

/// True when distance(a, b) certainly exceeds `r`: the squared distance
/// exceeds r^2 (1 + 1e-9). The rounded squares, their sum and the scaled r^2
/// err by a few ulps and hypot by under one, so such a pair's hypot exceeds
/// r by about 5e-10 relative and no comparison with r can flip. When r^2 is
/// not a normal double (r zero, too small or too large to square, infinite
/// or NaN) the bound does not hold and this is false, as it is when the
/// squared distance is NaN.
[[nodiscard]] inline bool clearly_beyond(Point a, Point b, double r) noexcept {
  return distance_sq(a, b) > beyond_cutoff(r);
}

}  // namespace detail

/// Exactly distance(a, b) < r, without the hypot call for pairs clearly
/// farther apart than r.
[[nodiscard]] inline bool distance_below(Point a, Point b, double r) noexcept {
  return !detail::clearly_beyond(a, b, r) && distance(a, b) < r;
}

/// Exactly distance(a, b) <= r, without the hypot call for pairs clearly
/// farther apart than r.
[[nodiscard]] inline bool distance_at_most(Point a, Point b,
                                           double r) noexcept {
  return !detail::clearly_beyond(a, b, r) && distance(a, b) <= r;
}

/// Integer grid cell (discretized SLM site coordinates).
struct Cell {
  std::int32_t col = 0;  // x index
  std::int32_t row = 0;  // y index

  friend constexpr bool operator==(Cell a, Cell b) noexcept {
    return a.col == b.col && a.row == b.row;
  }
  friend constexpr auto operator<=>(Cell a, Cell b) noexcept {
    if (auto c = a.row <=> b.row; c != 0) return c;
    return a.col <=> b.col;
  }
};

/// Chebyshev (ring) distance between cells; used for spiral free-site search.
[[nodiscard]] constexpr std::int32_t chebyshev(Cell a, Cell b) noexcept {
  const std::int32_t dc = a.col > b.col ? a.col - b.col : b.col - a.col;
  const std::int32_t dr = a.row > b.row ? a.row - b.row : b.row - a.row;
  return dc > dr ? dc : dr;
}

/// Manhattan distance between cells; used by the ELDI SWAP router.
[[nodiscard]] constexpr std::int32_t manhattan(Cell a, Cell b) noexcept {
  const std::int32_t dc = a.col > b.col ? a.col - b.col : b.col - a.col;
  const std::int32_t dr = a.row > b.row ? a.row - b.row : b.row - a.row;
  return dc + dr;
}

}  // namespace parallax::geom
