#include "geometry/uniform_grid.hpp"

#include <cassert>
#include <cmath>

namespace parallax::geom {

UniformGrid::UniformGrid(double radius, std::size_t points) {
  const double cap = std::min(
      2048.0, 2.0 * std::ceil(std::sqrt(static_cast<double>(points))) + 2.0);
  // The 1e-9 margin keeps the cell side strictly above the radius through
  // the rounding of this division and of the bucketing products.
  const double fit = radius > 0.0 ? 1.0 / (radius * (1.0 + 1e-9)) : 1.0;
  side_ = static_cast<int>(std::clamp(fit, 1.0, cap));
  start_.assign(static_cast<std::size_t>(side_) *
                        static_cast<std::size_t>(side_) +
                    1,
                0);
}

void UniformGrid::assign(const std::vector<double>& coords) {
  const std::size_t n = coords.size() / 2;
  cell_.resize(n);
  slots_.resize(n);
  // Count each cell's points, turn the counts into cell ends, then fill
  // every cell from its end backwards in descending index order: each end
  // becomes its cell's start, and each cell lists its points ascending.
  std::fill(start_.begin(), start_.end(), 0);
  for (std::size_t i = 0; i < n; ++i) {
    cell_[i] = cell_of(coords[2 * i], coords[2 * i + 1]);
    ++start_[static_cast<std::size_t>(cell_[i])];
  }
  for (std::size_t c = 1; c < start_.size(); ++c) start_[c] += start_[c - 1];
  for (std::size_t i = n; i-- > 0;) {
    slots_[static_cast<std::size_t>(
        --start_[static_cast<std::size_t>(cell_[i])])] =
        static_cast<std::int32_t>(i);
  }
}

void UniformGrid::move(std::size_t i, double x, double y) {
  const int to = cell_of(x, y);
  const int from = cell_[i];
  if (to == from) return;
  const auto id = static_cast<std::int32_t>(i);
  std::int32_t* const slots = slots_.data();
  std::int32_t* const at =
      std::find(slots + start_[static_cast<std::size_t>(from)],
                slots + start_[static_cast<std::size_t>(from) + 1], id);
  assert(at != slots + start_[static_cast<std::size_t>(from) + 1]);
  if (from < to) {
    // The rest of `from` and every cell before `to` move one slot down; the
    // freed slot just before `to` becomes its first.
    std::int32_t* const end = slots + start_[static_cast<std::size_t>(to)];
    std::copy(at + 1, end, at);
    end[-1] = id;
    for (int c = from + 1; c <= to; ++c) --start_[static_cast<std::size_t>(c)];
  } else {
    // Every cell after `to` up to `i`'s slot moves one slot up; the freed
    // slot just after `to` becomes its last.
    std::int32_t* const end = slots + start_[static_cast<std::size_t>(to) + 1];
    std::copy_backward(end, at, at + 1);
    *end = id;
    for (int c = to + 1; c <= from; ++c) ++start_[static_cast<std::size_t>(c)];
  }
  cell_[i] = to;
}

}  // namespace parallax::geom
