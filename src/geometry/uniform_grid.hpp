// Uniform square-cell grid over the unit box for fixed-radius neighbour
// queries. Cells are strictly wider than the radius, so every pair of points
// closer than it lies in the same or adjacent cells and a 3x3 neighbourhood
// scan finds all of them.
//
// Bucketing clamps coordinates onto [0,1]^2. Clamping is 1-Lipschitz, so an
// out-of-box point is never missed by a neighbour. A NaN coordinate buckets
// at 0: such a point has no finite distance to anything, so it is never
// within the radius.
//
// The points live in one array sorted by row-major cell, with per-cell
// offsets into it. The up to three cells of one row of a 3x3 block are
// adjacent in that order, so a neighbourhood is at most three contiguous
// spans and a query copies nothing.
#pragma once

#include <algorithm>
#include <cstddef>
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

  /// Re-buckets every point of interleaved (x, y) `coords` with a stable
  /// counting sort: each cell then lists its points in ascending index
  /// order.
  void assign(const std::vector<double>& coords);

  /// Moves point `i` (already assigned) to (x, y). A point that changes
  /// cell leaves its slot, the entries between its old and new slot shift
  /// one place towards the old one, and it lands first in a later cell or
  /// last in an earlier one. Costs O(entries and cells in between).
  void move(std::size_t i, double x, double y);

  /// Row-major index of the cell (x, y) buckets into.
  [[nodiscard]] int cell_of(double x, double y) const noexcept {
    return axis_cell(y) * side_ + axis_cell(x);
  }

  /// The cell point `i` was last assigned or moved to.
  [[nodiscard]] int cell(std::size_t i) const noexcept { return cell_[i]; }

  /// Calls visit(first, count) once per non-empty row of the 3x3 block
  /// around `cell`, clipped to the grid, rows ascending: the points of the
  /// row's up to three cells, columns ascending, each cell's points in its
  /// stored order. A point in `cell` lists itself.
  template <typename Visit>
  void for_each_row_span(int cell, Visit&& visit) const {
    const int cy = cell / side_;
    const int cx = cell - cy * side_;
    const int x0 = std::max(cx - 1, 0);
    const int x1 = std::min(cx + 1, side_ - 1);
    const int y1 = std::min(cy + 1, side_ - 1);
    for (int gy = std::max(cy - 1, 0); gy <= y1; ++gy) {
      const auto row = static_cast<std::size_t>(gy * side_);
      const std::int32_t first = start_[row + static_cast<std::size_t>(x0)];
      const std::int32_t last = start_[row + static_cast<std::size_t>(x1) + 1];
      if (first < last) {
        visit(slots_.data() + first, static_cast<std::size_t>(last - first));
      }
    }
  }

 private:
  [[nodiscard]] int axis_cell(double v) const noexcept {
    if (!(v > 0.0)) return 0;  // NaN included
    if (v >= 1.0) return side_ - 1;
    return std::min(side_ - 1,
                    static_cast<int>(v * static_cast<double>(side_)));
  }

  int side_ = 1;
  std::vector<std::int32_t> start_;  // cell c holds slots [start_[c], start_[c + 1])
  std::vector<std::int32_t> slots_;  // point indices sorted by cell
  std::vector<int> cell_;            // each assigned point's cell
};

}  // namespace parallax::geom
