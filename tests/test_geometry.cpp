// Geometry tests: points, cells, grids, occupancy spiral search, and the
// uniform neighbour grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <vector>

#include "geometry/grid.hpp"
#include "geometry/point.hpp"
#include "geometry/uniform_grid.hpp"
#include "util/rng.hpp"

namespace pg = parallax::geom;

TEST(Point, Arithmetic) {
  const pg::Point a{1.0, 2.0}, b{3.0, -1.0};
  EXPECT_EQ((a + b), (pg::Point{4.0, 1.0}));
  EXPECT_EQ((a - b), (pg::Point{-2.0, 3.0}));
  EXPECT_EQ((a * 2.0), (pg::Point{2.0, 4.0}));
  EXPECT_DOUBLE_EQ(pg::distance(a, b), std::hypot(2.0, 3.0));
  EXPECT_DOUBLE_EQ(pg::distance_sq(a, b), 13.0);
}

namespace {

/// `x` moved by `ulps` units in the last place (negative: toward -inf).
double step_ulps(double x, int ulps) {
  const double toward = ulps < 0 ? -std::numeric_limits<double>::infinity()
                                 : std::numeric_limits<double>::infinity();
  for (int i = 0; i < std::abs(ulps); ++i) x = std::nextafter(x, toward);
  return x;
}

/// Both radius forms must answer exactly what the hypot comparison does.
/// Returns the number of disagreements (each is also a test failure).
int expect_exact(pg::Point a, pg::Point b, double r) {
  const double d = pg::distance(a, b);
  const bool below = pg::distance_below(a, b, r);
  const bool at_most = pg::distance_at_most(a, b, r);
  EXPECT_EQ(below, d < r) << "a=(" << a.x << ", " << a.y << ") b=(" << b.x
                          << ", " << b.y << ") r=" << r;
  EXPECT_EQ(at_most, d <= r) << "a=(" << a.x << ", " << a.y << ") b=("
                             << b.x << ", " << b.y << ") r=" << r;
  return (below != (d < r)) + (at_most != (d <= r));
}

}  // namespace

// The radius helpers skip hypot only for pairs clearly beyond r; everywhere
// else, and for every special value, they must agree with the hypot
// comparison bit for bit.
TEST(RadiusTest, AgreesWithTheHypotComparisonExactly) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> radii = {0.0,    -0.0,   -2.5,   kNan,   kInf,
                               -kInf,  1e-160, 1e160,  1.0,    2.5,
                               4.2e-3, 6.0,    15.0,   1e3,    3e-7};
  parallax::util::Rng rng(0x4ad1ULL);
  for (int i = 0; i < 40; ++i) {
    radii.push_back(std::ldexp(rng.uniform(0.5, 1.0), -30 + 2 * i));
  }
  const pg::Point centers[] = {{0.0, 0.0}, {37.25, -12.5}, {1e-3, 7e5}};
  // Axes and diagonals.
  const pg::Point directions[] = {{1, 0},  {-1, 0}, {0, 1},   {0, -1},
                                  {1, 1},  {1, -1}, {-1, 1},  {-1, -1}};
  int disagreements = 0;
  for (const double r : radii) {
    for (const pg::Point c : centers) {
      for (const pg::Point dir : directions) {
        const double scale = (dir.x != 0 && dir.y != 0) ? r / std::sqrt(2.0)
                                                        : r;
        const pg::Point edge = c + dir * scale;
        for (int dx = -4; dx <= 4; ++dx) {
          for (int dy = -4; dy <= 4; ++dy) {
            const pg::Point b{step_ulps(edge.x, dx), step_ulps(edge.y, dy)};
            disagreements += expect_exact(c, b, r);
            disagreements += expect_exact(b, c, r);
          }
        }
        // Around r, and around the margin (about 5e-10 r beyond r).
        for (const double f :
             {1.0 - 1e-9, 1.0 + 5e-10, 1.0 + 1e-9, 1.0 + 2e-9}) {
          disagreements += expect_exact(c, c + dir * (scale * f), r);
        }
      }
    }
  }
  // Random pairs at mixed scales, against radii near and far from their
  // distance.
  for (int i = 0; i < 20000; ++i) {
    const double scale =
        std::ldexp(1.0, static_cast<int>(rng.next_below(80)) - 40);
    const pg::Point a{rng.uniform(-scale, scale), rng.uniform(-scale, scale)};
    const pg::Point b{rng.uniform(-scale, scale), rng.uniform(-scale, scale)};
    const double d = pg::distance(a, b);
    disagreements += expect_exact(a, b, d);
    const int ulps = 1 + static_cast<int>(rng.next_below(4));
    disagreements += expect_exact(a, b, step_ulps(d, ulps));
    disagreements += expect_exact(a, b, step_ulps(d, -ulps));
    disagreements += expect_exact(a, b, d * rng.uniform(0.0, 2.0));
    disagreements += expect_exact(a, b, radii[rng.next_below(radii.size())]);
  }
  // NaN and infinite coordinates.
  const double specials[] = {kNan, kInf, -kInf, 0.0, 1.0, 1e300};
  for (const double x : specials) {
    for (const double y : specials) {
      for (const double r : radii) {
        disagreements += expect_exact({x, y}, {1.0, 2.0}, r);
        disagreements += expect_exact({x, 0.5}, {y, 2.0}, r);
        disagreements += expect_exact({kInf, x}, {kInf, y}, r);
      }
    }
  }
  EXPECT_EQ(disagreements, 0);
}

TEST(Cell, Distances) {
  const pg::Cell a{0, 0}, b{3, -4};
  EXPECT_EQ(pg::chebyshev(a, b), 4);
  EXPECT_EQ(pg::manhattan(a, b), 7);
  EXPECT_EQ(pg::chebyshev(a, a), 0);
}

TEST(Grid, PositionsAndBounds) {
  const pg::Grid grid(16, 5.0);
  EXPECT_EQ(grid.site_count(), 256u);
  EXPECT_DOUBLE_EQ(grid.extent(), 75.0);
  EXPECT_TRUE(grid.in_bounds({0, 0}));
  EXPECT_TRUE(grid.in_bounds({15, 15}));
  EXPECT_FALSE(grid.in_bounds({16, 0}));
  EXPECT_FALSE(grid.in_bounds({-1, 3}));
  const auto p = grid.position({2, 3});
  EXPECT_DOUBLE_EQ(p.x, 10.0);
  EXPECT_DOUBLE_EQ(p.y, 15.0);
}

TEST(Grid, NearestCellClampsAndRounds) {
  const pg::Grid grid(4, 2.0);
  EXPECT_EQ(grid.nearest_cell({0.9, 1.1}), (pg::Cell{0, 1}));
  EXPECT_EQ(grid.nearest_cell({100.0, -5.0}), (pg::Cell{3, 0}));
}

TEST(Grid, RingClipsAtBoundary) {
  const pg::Grid grid(4, 1.0);
  const auto ring0 = grid.ring({0, 0}, 0);
  ASSERT_EQ(ring0.size(), 1u);
  const auto ring1 = grid.ring({0, 0}, 1);
  EXPECT_EQ(ring1.size(), 3u);  // corner: only 3 of 8 neighbours in bounds
  const auto ring_mid = grid.ring({1, 1}, 1);
  EXPECT_EQ(ring_mid.size(), 8u);
}

TEST(Occupancy, TracksCount) {
  const pg::Grid grid(3, 1.0);
  pg::Occupancy occ(grid);
  EXPECT_EQ(occ.count_occupied(), 0u);
  occ.set({1, 1}, true);
  occ.set({1, 1}, true);  // idempotent
  EXPECT_EQ(occ.count_occupied(), 1u);
  occ.set({1, 1}, false);
  EXPECT_EQ(occ.count_occupied(), 0u);
}

TEST(Occupancy, NearestFreePrefersTarget) {
  const pg::Grid grid(5, 1.0);
  pg::Occupancy occ(grid);
  EXPECT_EQ(occ.nearest_free({2, 2}), (pg::Cell{2, 2}));
}

TEST(Occupancy, NearestFreeSpiralsOut) {
  const pg::Grid grid(5, 1.0);
  pg::Occupancy occ(grid);
  occ.set({2, 2}, true);
  const auto cell = occ.nearest_free({2, 2});
  ASSERT_TRUE(cell.has_value());
  EXPECT_EQ(pg::chebyshev(*cell, {2, 2}), 1);
}

TEST(Occupancy, FullGridReturnsNullopt) {
  const pg::Grid grid(2, 1.0);
  pg::Occupancy occ(grid);
  for (std::int32_t r = 0; r < 2; ++r) {
    for (std::int32_t c = 0; c < 2; ++c) occ.set({c, r}, true);
  }
  EXPECT_FALSE(occ.nearest_free({0, 0}).has_value());
}

// --- Uniform neighbour grid -------------------------------------------------

namespace {

enum class GridLayout { kUniform, kClustered, kLattice, kOutOfBox, kNaN };

std::vector<double> grid_layout(GridLayout layout, parallax::util::Rng& rng,
                                std::size_t n, double radius) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> coords(2 * n);
  switch (layout) {
    case GridLayout::kUniform:
      for (double& c : coords) c = rng.next_double();
      break;
    case GridLayout::kClustered: {
      // Everything in one small spot, which may sit on a box edge.
      const double cx = rng.next_double() < 0.5 ? 1.0 : rng.next_double();
      const double cy = rng.next_double() < 0.5 ? 0.0 : rng.next_double();
      for (std::size_t i = 0; i < n; ++i) {
        coords[2 * i] = cx + rng.uniform(-0.01, 0.01);
        coords[2 * i + 1] = cy + rng.uniform(-0.01, 0.01);
      }
      break;
    }
    case GridLayout::kLattice: {
      // A square lattice at the radius's pitch, so neighbours sit exactly on
      // cell-sized spacings.
      const double pitch = radius > 0.0 && radius < 1.0 ? radius : 0.1;
      const auto side = static_cast<std::size_t>(
          std::ceil(std::sqrt(static_cast<double>(n))));
      for (std::size_t i = 0; i < n; ++i) {
        coords[2 * i] = static_cast<double>(i % side) * pitch;
        coords[2 * i + 1] = static_cast<double>(i / side) * pitch;
      }
      break;
    }
    case GridLayout::kOutOfBox:
      for (double& c : coords) c = rng.uniform(-0.5, 1.5);
      break;
    case GridLayout::kNaN:
      for (double& c : coords) {
        c = rng.next_double() < 0.2 ? kNan : rng.next_double();
      }
      break;
  }
  return coords;
}

/// Checks the grid against its contract for the points at `coords`. Every
/// point sits in the cell cell_of names for it. Around every cell, the row
/// spans list exactly the points whose cells lie in its 3x3 block, each
/// once, one grid row per span and cells ascending within it; after an
/// assign, each cell's points are in ascending index order. With
/// `brute_force`, every pair closer than `radius` (by the hypot comparison)
/// also appears in the spans around either point.
void expect_grid_contract(const parallax::geom::UniformGrid& grid,
                          const std::vector<double>& coords, double radius,
                          bool ascending_cells, bool brute_force) {
  const std::size_t n = coords.size() / 2;
  const int side = grid.cell_of(1.0, 0.0) + 1;
  ASSERT_EQ(grid.cell_of(0.0, 1.0), (side - 1) * side);
  std::vector<std::vector<std::int32_t>> members(
      static_cast<std::size_t>(side * side));
  for (std::size_t i = 0; i < n; ++i) {
    const int cell = grid.cell(i);
    ASSERT_EQ(cell, grid.cell_of(coords[2 * i], coords[2 * i + 1]))
        << "point " << i;
    members[static_cast<std::size_t>(cell)].push_back(
        static_cast<std::int32_t>(i));
  }
  std::vector<std::int32_t> listed, expected;
  for (int cell = 0; cell < side * side; ++cell) {
    listed.clear();
    int previous_row = -1;
    grid.for_each_row_span(cell, [&](const std::int32_t* first,
                                     std::size_t count) {
      ASSERT_GT(count, 0u);
      const int row = grid.cell(static_cast<std::size_t>(first[0])) / side;
      EXPECT_GT(row, previous_row) << "rows ascend, one span each";
      previous_row = row;
      for (std::size_t k = 0; k < count; ++k) {
        const auto j = static_cast<std::size_t>(first[k]);
        EXPECT_EQ(grid.cell(j) / side, row) << "a span is one grid row";
        if (k > 0) {
          const auto prev = static_cast<std::size_t>(first[k - 1]);
          EXPECT_LE(grid.cell(prev), grid.cell(j)) << "cells ascend";
          if (ascending_cells && grid.cell(prev) == grid.cell(j)) {
            EXPECT_LT(prev, j) << "a cell lists its points by index";
          }
        }
        listed.push_back(first[k]);
      }
    });
    expected.clear();
    const int cy = cell / side, cx = cell % side;
    for (int gy = std::max(cy - 1, 0); gy <= std::min(cy + 1, side - 1); ++gy) {
      for (int gx = std::max(cx - 1, 0); gx <= std::min(cx + 1, side - 1);
           ++gx) {
        const auto& in = members[static_cast<std::size_t>(gy * side + gx)];
        expected.insert(expected.end(), in.begin(), in.end());
      }
    }
    std::sort(listed.begin(), listed.end());
    std::sort(expected.begin(), expected.end());
    ASSERT_EQ(listed, expected) << "block around cell " << cell;
  }
  if (!brute_force) return;
  for (std::size_t i = 0; i < n; ++i) {
    const pg::Point p{coords[2 * i], coords[2 * i + 1]};
    listed.clear();
    grid.for_each_row_span(grid.cell(i), [&](const std::int32_t* first,
                                             std::size_t count) {
      listed.insert(listed.end(), first, first + count);
    });
    for (std::size_t j = 0; j < n; ++j) {
      const pg::Point q{coords[2 * j], coords[2 * j + 1]};
      if (!(pg::distance(p, q) < radius)) continue;
      EXPECT_EQ(std::count(listed.begin(), listed.end(),
                           static_cast<std::int32_t>(j)),
                1)
          << "point " << j << " within " << radius << " of point " << i;
    }
  }
}

}  // namespace

TEST(UniformGrid, RowSpansListEveryNeighbourOnceAfterAssignAndMoves) {
  constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
  const GridLayout layouts[] = {GridLayout::kUniform, GridLayout::kClustered,
                                GridLayout::kLattice, GridLayout::kOutOfBox,
                                GridLayout::kNaN};
  parallax::util::Rng rng(0x6e1dULL);
  int cases = 0;
  for (const std::size_t n : {1u, 2u, 9u, 40u, 150u}) {
    const double placement_radius = 0.5 / std::sqrt(static_cast<double>(n));
    for (const double radius : {1e-300, 1e-4, 0.02, placement_radius, 0.3,
                                0.9, 1.5, 40.0, 0.0, kNan}) {
      for (const GridLayout layout : layouts) {
        SCOPED_TRACE(::testing::Message()
                     << "n " << n << " radius " << radius << " layout "
                     << static_cast<int>(layout));
        pg::UniformGrid grid(radius, n);
        std::vector<double> coords = grid_layout(layout, rng, n, radius);
        grid.assign(coords);
        expect_grid_contract(grid, coords, radius, true, true);
        if (::testing::Test::HasFatalFailure()) return;
        for (int move = 0; move < 60; ++move) {
          const auto i = static_cast<std::size_t>(rng.next_below(n));
          double x = 0.0, y = 0.0;
          switch (move % 4) {
            case 0:  // corner to corner, across every cell in between
              x = coords[2 * i] < 0.5 ? 1.0 : 0.0;
              y = coords[2 * i + 1] < 0.5 ? 1.0 : 0.0;
              break;
            case 1:  // anywhere, a little outside the box included
              x = rng.uniform(-0.2, 1.2);
              y = rng.uniform(-0.2, 1.2);
              break;
            case 2:  // a local step, often within the same cell
              x = coords[2 * i] + rng.uniform(-0.02, 0.02);
              y = coords[2 * i + 1] + rng.uniform(-0.02, 0.02);
              break;
            default:  // a NaN coordinate buckets at 0
              x = rng.next_double() < 0.5 ? kNan : rng.next_double();
              y = rng.next_double() < 0.5 ? kNan : rng.next_double();
              break;
          }
          grid.move(i, x, y);
          coords[2 * i] = x;
          coords[2 * i + 1] = y;
          expect_grid_contract(grid, coords, radius, false, move % 10 == 9);
          if (::testing::Test::HasFatalFailure()) return;
        }
        // A fresh assign restores index order within every cell.
        grid.assign(coords);
        expect_grid_contract(grid, coords, radius, true, true);
        if (::testing::Test::HasFatalFailure()) return;
        ++cases;
      }
    }
  }
  EXPECT_EQ(cases, 5 * 10 * 5);
}
