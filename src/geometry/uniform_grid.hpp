// Uniform square-cell grid over the unit box for fixed-radius neighbour
// queries. Cells are strictly wider than the radius, so every pair of points
// closer than it lies in the same or adjacent cells and a 3x3 neighbourhood
// scan finds all of them.
//
// Bucketing clamps coordinates onto [0,1]^2. Clamping is 1-Lipschitz, so an
// out-of-box point is never missed by a neighbour. A NaN coordinate buckets
// at 0: such a point has no finite distance to anything, so it is never
// within the radius.
#pragma once

#include <cstdint>
#include <vector>

namespace parallax::geom {

class UniformGrid {
 public:
  /// A grid for pairs closer than `radius` among up to `points` points.
  /// Cells per side: floor(1 / (radius * (1 + 1e-9))), clamped to
  /// [1, min(2048, 2 * ceil(sqrt(points)) + 2)]. The cap keeps the cell
  /// count O(points) whatever the radius; it never binds at the placement
  /// default radius 1 / (2 sqrt(points)). A NaN, non-positive or infinite
  /// radius gets one cell.
  UniformGrid(double radius, std::size_t points);

  /// Re-buckets every point of interleaved (x, y) `coords`. Each cell then
  /// lists its points in ascending index order.
  void assign(const std::vector<double>& coords);

  /// Moves point `i` (already assigned) to (x, y). A point that changes
  /// cell is swap-removed from its old cell and appended to the new one.
  void move(std::size_t i, double x, double y);

  /// Replaces `out` with the points of the 3x3 cell block around (x, y),
  /// clipped to the grid: cell rows ascending, then columns ascending, each
  /// cell's points in its stored order. A point at (x, y) lists itself.
  void neighbours(double x, double y, std::vector<std::int32_t>& out) const;

 private:
  [[nodiscard]] int axis_cell(double v) const noexcept;
  /// Row-major cell index of (x, y) after clamping onto the unit box.
  [[nodiscard]] int cell_of(double x, double y) const noexcept;

  int side_ = 1;
  std::vector<std::vector<std::int32_t>> buckets_;
  std::vector<int> cell_;  // each assigned point's cell
};

}  // namespace parallax::geom
