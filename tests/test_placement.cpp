// Placement tests: annealed Graphine layout quality, radius selection, and
// discretization invariants (min separation, distinct sites, footprint).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/interaction_graph.hpp"
#include "hardware/config.hpp"
#include "placement/discretize.hpp"
#include "placement/graphine.hpp"
#include "placement/objective.hpp"
#include "util/rng.hpp"

namespace pc = parallax::circuit;
namespace pp = parallax::placement;
namespace ph = parallax::hardware;
namespace pg = parallax::geom;

namespace {
pp::GraphineOptions fast_options() {
  pp::GraphineOptions options;
  options.anneal_iterations = 200;
  options.local_search_evaluations = 200;
  options.seed = 7;
  return options;
}
}  // namespace

TEST(Graphine, BottleneckRadiusLine) {
  // Three collinear points spaced 1 and 3 apart: the connectivity radius is
  // the larger gap.
  const std::vector<pg::Point> points{{0, 0}, {1, 0}, {4, 0}};
  EXPECT_DOUBLE_EQ(pp::bottleneck_connect_radius(points), 3.0);
}

TEST(Graphine, BottleneckRadiusDegenerate) {
  EXPECT_DOUBLE_EQ(pp::bottleneck_connect_radius({}), 0.0);
  EXPECT_DOUBLE_EQ(pp::bottleneck_connect_radius({{1, 1}}), 0.0);
}

TEST(Graphine, HeavyEdgesPlaceCloser) {
  // q0-q1 interact 20x, q2-q3 interact 20x, cross pairs once. The annealer
  // should place the heavy pairs closer than the average cross distance.
  pc::Circuit c(4);
  for (int i = 0; i < 20; ++i) {
    c.cz(0, 1);
    c.cz(2, 3);
  }
  c.cz(1, 2);
  const pc::InteractionGraph graph(c);
  const auto topology = pp::graphine_place(graph, fast_options());
  ASSERT_EQ(topology.positions.size(), 4u);
  const double d01 =
      pg::distance(topology.positions[0], topology.positions[1]);
  const double d23 =
      pg::distance(topology.positions[2], topology.positions[3]);
  const double d02 =
      pg::distance(topology.positions[0], topology.positions[2]);
  const double d13 =
      pg::distance(topology.positions[1], topology.positions[3]);
  EXPECT_LT(d01, (d02 + d13) / 2);
  EXPECT_LT(d23, (d02 + d13) / 2);
}

TEST(Graphine, CrowdingPreventsCollapse) {
  // All qubits interact with all: without the crowding term everything
  // would collapse to a point; the layout must keep pairwise distances up.
  pc::Circuit c(6);
  for (int a = 0; a < 6; ++a) {
    for (int b = a + 1; b < 6; ++b) c.cz(a, b);
  }
  const pc::InteractionGraph graph(c);
  const auto topology = pp::graphine_place(graph, fast_options());
  double min_d = 1e9;
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i + 1; j < 6; ++j) {
      min_d = std::min(
          min_d, pg::distance(topology.positions[i], topology.positions[j]));
    }
  }
  EXPECT_GT(min_d, 0.01);
}

TEST(Graphine, RadiusConnectsAllQubits) {
  pc::Circuit c(8);
  for (int q = 0; q + 1 < 8; ++q) c.cz(q, q + 1);
  const pc::InteractionGraph graph(c);
  const auto topology = pp::graphine_place(graph, fast_options());
  // By construction the radius is the MST bottleneck: every point must have
  // at least one neighbour within the radius (plus epsilon slack).
  for (std::size_t i = 0; i < topology.positions.size(); ++i) {
    double nearest = 1e9;
    for (std::size_t j = 0; j < topology.positions.size(); ++j) {
      if (i == j) continue;
      nearest = std::min(nearest, pg::distance(topology.positions[i],
                                               topology.positions[j]));
    }
    EXPECT_LE(nearest, topology.interaction_radius + 1e-9);
  }
}

TEST(Graphine, DeterministicForSeed) {
  pc::Circuit c(5);
  c.cz(0, 1);
  c.cz(1, 2);
  c.cz(3, 4);
  c.cz(2, 3);
  const pc::InteractionGraph graph(c);
  const auto a = pp::graphine_place(graph, fast_options());
  const auto b = pp::graphine_place(graph, fast_options());
  ASSERT_EQ(a.positions.size(), b.positions.size());
  for (std::size_t i = 0; i < a.positions.size(); ++i) {
    EXPECT_EQ(a.positions[i], b.positions[i]);
  }
}

TEST(Graphine, ObjectivePenalizesDistance) {
  pc::Circuit c(2);
  c.cz(0, 1);
  const pc::InteractionGraph graph(c);
  pp::GraphineOptions options;
  // Both layouts are beyond the crowding distance (0.5/sqrt(2) ~ 0.354), so
  // the comparison isolates the weighted-distance term.
  const double near = pp::placement_objective({0.2, 0.2, 0.6, 0.6}, graph,
                                              options);
  const double far =
      pp::placement_objective({0.0, 0.0, 1.0, 1.0}, graph, options);
  EXPECT_LT(near, far);
}

// --- discretization -----------------------------------------------------------

namespace {
pp::Topology grid_topology(std::size_t n) {
  // Deterministic spread-out normalized layout (no annealing needed).
  pp::Topology topology;
  const auto side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  for (std::size_t q = 0; q < n; ++q) {
    topology.positions.push_back(
        {static_cast<double>(q % side) / static_cast<double>(side),
         static_cast<double>(q / side) / static_cast<double>(side)});
  }
  topology.interaction_radius = 0.5;
  return topology;
}
}  // namespace

TEST(Discretize, SitesAreDistinctAndInBounds) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const auto physical = pp::discretize(grid_topology(30), config);
  ASSERT_EQ(physical.sites.size(), 30u);
  std::set<std::pair<int, int>> seen;
  for (const auto& cell : physical.sites) {
    EXPECT_TRUE(physical.grid.in_bounds(cell));
    EXPECT_TRUE(seen.insert({cell.col, cell.row}).second)
        << "duplicate site " << cell.col << "," << cell.row;
  }
}

TEST(Discretize, PitchGuaranteesMinSeparation) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  EXPECT_DOUBLE_EQ(config.pitch_um(),
                   2 * config.min_separation_um +
                       config.discretization_padding_um);
  const auto physical = pp::discretize(grid_topology(64), config);
  for (std::size_t a = 0; a < 64; ++a) {
    for (std::size_t b = a + 1; b < 64; ++b) {
      const double d =
          pg::distance(physical.grid.position(physical.sites[a]),
                       physical.grid.position(physical.sites[b]));
      EXPECT_GE(d, config.min_separation_um);
    }
  }
}

TEST(Discretize, RadiusKeepsConnectivity) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const auto physical = pp::discretize(grid_topology(20), config);
  EXPECT_GE(physical.interaction_radius_um,
            physical.grid.pitch() * std::sqrt(2.0));
  EXPECT_DOUBLE_EQ(physical.blockade_radius_um,
                   2.5 * physical.interaction_radius_um);
}

TEST(Discretize, SmallCircuitKeepsCompactFootprint) {
  const auto config = ph::HardwareConfig::atom_computing_1225();
  const auto physical = pp::discretize(grid_topology(9), config);
  std::int32_t max_col = 0, max_row = 0;
  for (const auto& cell : physical.sites) {
    max_col = std::max(max_col, cell.col);
    max_row = std::max(max_row, cell.row);
  }
  // spread_factor 2 -> 9 qubits in at most a ~7-cell-wide region, far less
  // than the 35-site machine (leaving room for parallel shot copies).
  EXPECT_LT(max_col, 10);
  EXPECT_LT(max_row, 10);
}

TEST(Discretize, RejectsOversizedCircuit) {
  ph::HardwareConfig config = ph::HardwareConfig::quera_aquila_256();
  EXPECT_THROW((void)pp::discretize(grid_topology(300), config),
               std::runtime_error);
}

TEST(Discretize, FullMachineStillFits) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const auto physical = pp::discretize(grid_topology(256), config);
  EXPECT_EQ(physical.sites.size(), 256u);
}

// --- Delta-cost objective: the bit-identity contract ----------------------

namespace {

/// Random interaction graph: n qubits, random CZ pairs (duplicates merge
/// into edge weights).
pc::Circuit random_circuit(std::uint64_t seed, std::int32_t n,
                           int n_gates) {
  parallax::util::Rng rng(seed);
  pc::Circuit c(n, "fuzz" + std::to_string(seed));
  for (int g = 0; g < n_gates; ++g) {
    const auto a = static_cast<std::int32_t>(rng.uniform_int(0, n - 1));
    auto b = static_cast<std::int32_t>(rng.uniform_int(0, n - 2));
    if (b >= a) ++b;
    c.cz(a, b);
  }
  return c;
}

std::vector<double> random_state(parallax::util::Rng& rng, std::int32_t n) {
  std::vector<double> coords(2 * static_cast<std::size_t>(n));
  for (double& c : coords) c = rng.next_double();
  return coords;
}

}  // namespace

TEST(DeltaObjective, BitIdenticalToFullRescoreUnderFuzzedMoves) {
  for (const std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL}) {
    parallax::util::Rng rng(seed * 1000 + 17);
    const std::int32_t n = static_cast<std::int32_t>(rng.uniform_int(2, 40));
    const auto circuit = random_circuit(seed, n, 3 * n);
    const pc::InteractionGraph graph(circuit);
    pp::GraphineOptions options;
    pp::DeltaPlacementObjective objective(graph, options);
    ASSERT_EQ(objective.sites(), static_cast<std::size_t>(n));

    const double initial = objective.reset(random_state(rng, n));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(initial),
              std::bit_cast<std::uint64_t>(objective.value()));

    std::vector<double> coords;
    for (int move = 0; move < 400; ++move) {
      const auto q = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
      // Mix local jitter (the annealer's common case, including slightly
      // out-of-box targets that wrap/clamp upstream) with global jumps.
      double x, y;
      objective.snapshot(coords);
      if (move % 3 == 0) {
        x = rng.uniform(-0.1, 1.1);
        y = rng.uniform(-0.1, 1.1);
      } else {
        x = coords[2 * q] + rng.uniform(-0.05, 0.05);
        y = coords[2 * q + 1] + rng.uniform(-0.05, 0.05);
      }
      const double proposed = objective.propose(q, x, y);
      if (move % 4 != 0) {  // leave some proposals uncommitted
        objective.commit();
        ASSERT_EQ(std::bit_cast<std::uint64_t>(objective.value()),
                  std::bit_cast<std::uint64_t>(proposed));
      }
      objective.snapshot(coords);
      const double rescored = objective.full(coords);
      ASSERT_EQ(std::bit_cast<std::uint64_t>(objective.value()),
                std::bit_cast<std::uint64_t>(rescored))
          << "seed " << seed << " move " << move;
    }
  }
}

TEST(DeltaObjective, AgreesWithLegacyObjectiveNumerically) {
  // Same cost function, different term arithmetic (sqrt vs hypot, exact vs
  // left-to-right accumulation) — values agree to rounding noise, not bits.
  parallax::util::Rng rng(404);
  const auto circuit = random_circuit(8, 24, 80);
  const pc::InteractionGraph graph(circuit);
  pp::GraphineOptions options;
  pp::DeltaPlacementObjective objective(graph, options);
  for (int trial = 0; trial < 20; ++trial) {
    const auto coords = random_state(rng, 24);
    const double delta_value = objective.full(coords);
    const double legacy_value =
        pp::placement_objective(coords, graph, options);
    EXPECT_NEAR(delta_value, legacy_value,
                1e-9 * std::max(1.0, std::abs(legacy_value)));
  }
}

// --- Legacy objective: the crowding scan against the all-pairs oracle ------

namespace {

/// The legacy objective with its crowding term as the all-pairs loop:
/// edge terms, then every penalized pair in (i, j) order, one `+=` each.
/// placement_objective must return these exact bits.
double all_pairs_objective(const std::vector<double>& coords,
                           const pc::InteractionGraph& graph,
                           const pp::GraphineOptions& options) {
  const auto n = static_cast<std::size_t>(graph.n_qubits());
  auto point = [&](std::size_t q) {
    return pg::Point{coords[2 * q], coords[2 * q + 1]};
  };
  double cost = 0.0;
  for (const auto& e : graph.edges()) {
    cost += static_cast<double>(e.weight) *
            pg::distance(point(static_cast<std::size_t>(e.a)),
                         point(static_cast<std::size_t>(e.b)));
  }
  if (n > 1) {
    const double d_min =
        options.crowding_distance / std::sqrt(static_cast<double>(n));
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double d = pg::distance(point(i), point(j));
        if (d < d_min) {
          const double v = d_min - d;
          cost += options.crowding_weight * v * v / (d_min * d_min);
        }
      }
    }
  }
  return cost;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b) ||
         (std::isnan(a) && std::isnan(b));
}

/// Layout families that stress the crowding scan's pair discovery.
enum class Layout {
  kUniform,    // uniform in the unit box
  kLattice,    // square lattices spaced exactly d_min and one ulp inside
  kPairs,      // partners at d_min, one ulp inside and one ulp outside
  kSnapped,    // coordinates on {0, 1/2, 1} +- d_min: duplicates and edges
  kCluster,    // every point within d_min of one spot, corners included
  kOutOfBox,   // uniform in [-1/2, 3/2]^2
  kNonFinite,  // uniform with NaN, +-inf and +-1e300 sprinkled in
};

std::vector<double> fuzz_layout(Layout layout, parallax::util::Rng& rng,
                                std::int32_t n, double d_min) {
  // Spacing-driven layouts need a spacing inside the box.
  const double d = d_min > 0.0 && d_min < 1.0 ? d_min : 0.1;
  const auto size = static_cast<std::size_t>(n);
  std::vector<double> coords(2 * size);
  switch (layout) {
    case Layout::kUniform:
      for (double& c : coords) c = rng.next_double();
      break;
    case Layout::kLattice: {
      const double pitch = rng.next_double() < 0.5
                               ? d
                               : std::nextafter(d, 0.0);
      const double origin = rng.next_double() * 0.5;
      const auto side = static_cast<std::size_t>(
          std::ceil(std::sqrt(static_cast<double>(n))));
      for (std::size_t q = 0; q < size; ++q) {
        coords[2 * q] = origin + static_cast<double>(q % side) * pitch;
        coords[2 * q + 1] = origin + static_cast<double>(q / side) * pitch;
      }
      break;
    }
    case Layout::kPairs:
      for (std::size_t q = 0; q < size; ++q) {
        if (q % 2 == 0) {
          coords[2 * q] = rng.next_double();
          coords[2 * q + 1] = rng.next_double();
          continue;
        }
        const double bx = coords[2 * q - 2], by = coords[2 * q - 1];
        const double far = rng.next_double() < 0.5 ? bx + d : bx - d;
        const double pick = rng.next_double();
        const double x = pick < 1.0 / 3   ? far
                         : pick < 2.0 / 3 ? std::nextafter(far, bx)
                                          : std::nextafter(far, far + far - bx);
        if (rng.next_double() < 0.5) {
          coords[2 * q] = x;
          coords[2 * q + 1] = by;
        } else {  // the same offset along y
          coords[2 * q] = bx;
          coords[2 * q + 1] = by + (x - bx);
        }
      }
      break;
    case Layout::kSnapped: {
      const double snaps[] = {0.0, 1.0, 0.5, d, 1.0 - d, 0.5 - d, 0.5 + d};
      for (double& c : coords) {
        c = snaps[static_cast<std::size_t>(rng.uniform_int(0, 6))];
      }
      break;
    }
    case Layout::kCluster: {
      const double corners[] = {0.0, 1.0, rng.next_double()};
      const double cx = corners[static_cast<std::size_t>(rng.uniform_int(0, 2))];
      const double cy = corners[static_cast<std::size_t>(rng.uniform_int(0, 2))];
      for (std::size_t q = 0; q < size; ++q) {
        coords[2 * q] = cx + rng.uniform(-d, d) * 0.7;
        coords[2 * q + 1] = cy + rng.uniform(-d, d) * 0.7;
      }
      break;
    }
    case Layout::kOutOfBox:
      for (double& c : coords) c = rng.uniform(-0.5, 1.5);
      break;
    case Layout::kNonFinite: {
      const double inf = std::numeric_limits<double>::infinity();
      const double odd[] = {std::nan(""), inf, -inf, 1e300, -1e300};
      for (double& c : coords) {
        c = rng.next_double() < 0.2
                ? odd[static_cast<std::size_t>(rng.uniform_int(0, 4))]
                : rng.next_double();
      }
      break;
    }
  }
  return coords;
}

}  // namespace

TEST(Graphine, ObjectiveMatchesTheAllPairsOracleBitForBit) {
  parallax::util::Rng rng(1613);
  std::vector<std::int32_t> sizes{2, 3, 9, 16, 25, 64};
  for (int extra = 0; extra < 6; ++extra) {
    sizes.push_back(static_cast<std::int32_t>(rng.uniform_int(2, 90)));
  }
  const double crowding_distances[] = {0.5, 0.0, -1.0, 1e-3, 1e-300, 3.0,
                                       1e300};
  const Layout layouts[] = {Layout::kUniform,  Layout::kLattice,
                            Layout::kPairs,    Layout::kSnapped,
                            Layout::kCluster,  Layout::kOutOfBox,
                            Layout::kNonFinite};
  int cases = 0;
  for (const std::int32_t n : sizes) {
    const auto circuit =
        random_circuit(static_cast<std::uint64_t>(n) * 31 + 5, n, 2 * n);
    const pc::InteractionGraph graph(circuit);
    for (const double crowding_distance : crowding_distances) {
      pp::GraphineOptions options;
      options.crowding_distance = crowding_distance;
      const double d_min = crowding_distance / std::sqrt(static_cast<double>(n));
      for (const Layout layout : layouts) {
        for (int rep = 0; rep < 2; ++rep) {
          const auto coords = fuzz_layout(layout, rng, n, d_min);
          const double expected = all_pairs_objective(coords, graph, options);
          const double actual = pp::placement_objective(coords, graph, options);
          ASSERT_TRUE(same_bits(actual, expected))
              << "n " << n << " crowding_distance " << crowding_distance
              << " layout " << static_cast<int>(layout) << " rep " << rep
              << ": " << actual << " vs " << expected;
          ++cases;
        }
      }
    }
  }
  EXPECT_EQ(cases, 12 * 7 * 7 * 2);
}

TEST(DeltaObjective, SingleQubitGraphHasNoCrowding) {
  const auto circuit = pc::Circuit(1, "solo");
  const pc::InteractionGraph graph(circuit);
  pp::GraphineOptions options;
  pp::DeltaPlacementObjective objective(graph, options);
  EXPECT_EQ(objective.reset({0.5, 0.5}), 0.0);
  EXPECT_EQ(objective.propose(0, 0.9, 0.1), 0.0);
}

// --- graphine_place fast modes --------------------------------------------

TEST(Graphine, BatchedModeDeterministicWithStats) {
  const auto circuit = random_circuit(5, 20, 60);
  const pc::InteractionGraph graph(circuit);
  auto options = fast_options();
  options.proposal = pp::ProposalMode::kBatched;
  options.anneal_iterations = 80;
  pp::PlacementStats stats_a, stats_b;
  const auto a = pp::graphine_place(graph, options, &stats_a);
  const auto b = pp::graphine_place(graph, options, &stats_b);
  ASSERT_EQ(a.positions.size(), b.positions.size());
  for (std::size_t q = 0; q < a.positions.size(); ++q) {
    EXPECT_EQ(a.positions[q].x, b.positions[q].x);
    EXPECT_EQ(a.positions[q].y, b.positions[q].y);
  }
  EXPECT_EQ(a.interaction_radius, b.interaction_radius);
  EXPECT_GT(stats_a.delta_evaluations, 0);
  EXPECT_EQ(stats_a.chains, 1);
  for (const auto& p : a.positions) {
    EXPECT_GE(p.x, 0.0);
    EXPECT_LE(p.x, 1.0);
    EXPECT_GE(p.y, 0.0);
    EXPECT_LE(p.y, 1.0);
  }
}

TEST(Graphine, MultiChainModeReportsChainsAndStaysDeterministic) {
  const auto circuit = random_circuit(6, 16, 48);
  const pc::InteractionGraph graph(circuit);
  auto options = fast_options();
  options.proposal = pp::ProposalMode::kBatched;
  options.anneal_iterations = 60;
  options.chains = 3;
  pp::PlacementStats stats;
  const auto a = pp::graphine_place(graph, options, &stats);
  const auto b = pp::graphine_place(graph, options);
  EXPECT_EQ(stats.chains, 3);
  EXPECT_GT(stats.delta_evaluations, 0);
  ASSERT_EQ(a.positions.size(), b.positions.size());
  for (std::size_t q = 0; q < a.positions.size(); ++q) {
    EXPECT_EQ(a.positions[q].x, b.positions[q].x);
    EXPECT_EQ(a.positions[q].y, b.positions[q].y);
  }
}

TEST(Graphine, RejectsChainsOrPortfolioWithoutBatchedProposals) {
  // Only the batched walk runs multi-chain and portfolio anneals; any other
  // proposal mode with them is refused rather than silently re-routed.
  const auto circuit = random_circuit(7, 8, 20);
  const pc::InteractionGraph graph(circuit);
  auto chains = fast_options();
  chains.chains = 2;
  try {
    (void)pp::graphine_place(graph, chains);
    FAIL() << "chains > 1 without kBatched must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("chains"), std::string::npos);
  }
  auto portfolio = fast_options();
  portfolio.portfolio_entrants = 2;
  try {
    (void)pp::graphine_place(graph, portfolio);
    FAIL() << "portfolio_entrants > 0 without kBatched must throw";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("portfolio_entrants"),
              std::string::npos);
  }
  portfolio.proposal = pp::ProposalMode::kBatched;
  EXPECT_NO_THROW((void)pp::graphine_place(graph, portfolio));
}
