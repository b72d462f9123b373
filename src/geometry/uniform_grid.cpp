#include "geometry/uniform_grid.hpp"

#include <algorithm>
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
  buckets_.resize(static_cast<std::size_t>(side_) *
                  static_cast<std::size_t>(side_));
}

int UniformGrid::axis_cell(double v) const noexcept {
  if (!(v > 0.0)) return 0;  // NaN included
  if (v >= 1.0) return side_ - 1;
  return std::min(side_ - 1, static_cast<int>(v * static_cast<double>(side_)));
}

int UniformGrid::cell_of(double x, double y) const noexcept {
  return axis_cell(y) * side_ + axis_cell(x);
}

void UniformGrid::assign(const std::vector<double>& coords) {
  for (const int c : cell_) buckets_[static_cast<std::size_t>(c)].clear();
  cell_.resize(coords.size() / 2);
  for (std::size_t i = 0; i < cell_.size(); ++i) {
    cell_[i] = cell_of(coords[2 * i], coords[2 * i + 1]);
    buckets_[static_cast<std::size_t>(cell_[i])].push_back(
        static_cast<std::int32_t>(i));
  }
}

void UniformGrid::move(std::size_t i, double x, double y) {
  const int to = cell_of(x, y);
  if (to == cell_[i]) return;
  auto& from = buckets_[static_cast<std::size_t>(cell_[i])];
  const auto it = std::find(from.begin(), from.end(),
                            static_cast<std::int32_t>(i));
  assert(it != from.end());
  *it = from.back();
  from.pop_back();
  buckets_[static_cast<std::size_t>(to)].push_back(
      static_cast<std::int32_t>(i));
  cell_[i] = to;
}

void UniformGrid::neighbours(double x, double y,
                             std::vector<std::int32_t>& out) const {
  out.clear();
  const int cx = axis_cell(x);
  const int cy = axis_cell(y);
  const int x0 = std::max(cx - 1, 0), x1 = std::min(cx + 1, side_ - 1);
  const int y0 = std::max(cy - 1, 0), y1 = std::min(cy + 1, side_ - 1);
  for (int gy = y0; gy <= y1; ++gy) {
    for (int gx = x0; gx <= x1; ++gx) {
      const auto& bucket = buckets_[static_cast<std::size_t>(gy * side_ + gx)];
      out.insert(out.end(), bucket.begin(), bucket.end());
    }
  }
}

}  // namespace parallax::geom
