// Baseline compiler tests: SWAP-router correctness (permutation tracking,
// in-range CZs), static scheduling invariants, and the ELDI/GRAPHINE
// pipelines end to end.
#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <span>

#include "baselines/static_schedule.hpp"
#include "baselines/swap_router.hpp"
#include "circuit/transpile.hpp"
#include "technique/registry.hpp"
#include "util/rng.hpp"

namespace pb = parallax::baselines;
namespace pc = parallax::circuit;
namespace ph = parallax::hardware;
namespace pg = parallax::geom;

namespace {

/// A line of atoms spaced 1.0 apart: atom i at (i, 0).
std::vector<pg::Point> line_positions(std::int32_t n) {
  std::vector<pg::Point> positions;
  for (std::int32_t i = 0; i < n; ++i) {
    positions.push_back({static_cast<double>(i), 0.0});
  }
  return positions;
}

pc::Circuit random_cz_circuit(std::int32_t n, int gates, std::uint64_t seed) {
  parallax::util::Rng rng(seed);
  pc::Circuit c(n, "random");
  for (int i = 0; i < gates; ++i) {
    const auto a = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    auto b = static_cast<std::int32_t>(
        rng.next_below(static_cast<std::uint64_t>(n)));
    while (b == a) {
      b = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(n)));
    }
    c.cz(a, b);
  }
  return c;
}

/// Replays the routed circuit, tracking the logical permutation, and checks
/// that every CZ acts on the right logical pair at in-range atoms.
void verify_routing(const pc::Circuit& input, const pb::RoutedCircuit& routed,
                    const std::vector<pg::Point>& positions, double radius) {
  std::vector<std::int32_t> logical_at(positions.size());
  std::iota(logical_at.begin(), logical_at.end(), 0);
  std::size_t input_cz = 0;
  std::vector<std::pair<std::int32_t, std::int32_t>> expected;
  for (const auto& g : input.gates()) {
    if (g.type == pc::GateType::kCZ) {
      expected.push_back({std::min(g.q[0], g.q[1]), std::max(g.q[0], g.q[1])});
    }
  }
  for (const auto& g : routed.circuit.gates()) {
    if (g.type == pc::GateType::kSwap) {
      std::swap(logical_at[static_cast<std::size_t>(g.q[0])],
                logical_at[static_cast<std::size_t>(g.q[1])]);
      // SWAPs must themselves be between in-range atoms.
      EXPECT_LE(pg::distance(positions[static_cast<std::size_t>(g.q[0])],
                             positions[static_cast<std::size_t>(g.q[1])]),
                radius);
      continue;
    }
    if (g.type != pc::GateType::kCZ) continue;
    // In range?
    EXPECT_LE(pg::distance(positions[static_cast<std::size_t>(g.q[0])],
                           positions[static_cast<std::size_t>(g.q[1])]),
              radius);
    // Acting on the correct logical pair?
    const auto la = logical_at[static_cast<std::size_t>(g.q[0])];
    const auto lb = logical_at[static_cast<std::size_t>(g.q[1])];
    ASSERT_LT(input_cz, expected.size());
    EXPECT_EQ(std::make_pair(std::min(la, lb), std::max(la, lb)),
              expected[input_cz])
        << "CZ #" << input_cz << " routed to the wrong logical pair";
    ++input_cz;
  }
  EXPECT_EQ(input_cz, expected.size());
}

}  // namespace

TEST(SwapRouter, ConnectivityGraphByRadius) {
  const auto positions = line_positions(4);
  const auto adjacency = pb::connectivity_graph(positions, 1.5);
  EXPECT_EQ(adjacency[0].size(), 1u);  // atom 1 only
  EXPECT_EQ(adjacency[1].size(), 2u);
  const auto wide = pb::connectivity_graph(positions, 2.5);
  EXPECT_EQ(wide[0].size(), 2u);  // atoms 1 and 2
}

TEST(SwapRouter, InRangeGateNeedsNoSwap) {
  pc::Circuit c(3);
  c.cz(0, 1);
  const auto routed = pb::route_with_swaps(c, line_positions(3), 1.5);
  EXPECT_EQ(routed.swaps_inserted, 0u);
  EXPECT_EQ(routed.circuit.cz_count(), 1u);
}

TEST(SwapRouter, FarGateSwapsAlongChain) {
  pc::Circuit c(4);
  c.cz(0, 3);  // distance 3 with radius 1.5: one swap hop needed
  const auto routed = pb::route_with_swaps(c, line_positions(4), 1.5);
  EXPECT_GE(routed.swaps_inserted, 1u);
  EXPECT_EQ(routed.routed_cz, 1u);
  verify_routing(c, routed, line_positions(4), 1.5);
}

TEST(SwapRouter, PermutationTrackedAcrossManyGates) {
  const auto positions = line_positions(8);
  const auto input = random_cz_circuit(8, 60, 99);
  const auto routed = pb::route_with_swaps(input, positions, 1.5);
  verify_routing(input, routed, positions, 1.5);
}

TEST(SwapRouter, SingleQubitGatesFollowTheirQubit) {
  pc::Circuit c(4);
  c.cz(0, 3);          // forces swaps
  c.u3(0, 0.5, 0, 0);  // must land on wherever logical 0 now lives
  const auto positions = line_positions(4);
  const auto routed = pb::route_with_swaps(c, positions, 1.5);
  // Replay to find logical 0's atom at the end.
  std::vector<std::int32_t> logical_at(4);
  std::iota(logical_at.begin(), logical_at.end(), 0);
  for (const auto& g : routed.circuit.gates()) {
    if (g.type == pc::GateType::kSwap) {
      std::swap(logical_at[static_cast<std::size_t>(g.q[0])],
                logical_at[static_cast<std::size_t>(g.q[1])]);
    }
  }
  // The last u3 in the routed circuit must act on logical 0's atom.
  const auto& gates = routed.circuit.gates();
  const auto it = std::find_if(gates.rbegin(), gates.rend(), [](const auto& g) {
    return g.type == pc::GateType::kU3;
  });
  ASSERT_NE(it, gates.rend());
  EXPECT_EQ(logical_at[static_cast<std::size_t>(it->q[0])], 0);
}

TEST(SwapRouter, DisconnectedGraphThrows) {
  std::vector<pg::Point> positions{{0, 0}, {100, 0}};
  pc::Circuit c(2);
  c.cz(0, 1);
  EXPECT_THROW((void)pb::route_with_swaps(c, positions, 1.5),
               std::runtime_error);
}

TEST(StaticSchedule, LayersRespectBlockade) {
  const auto positions = line_positions(8);
  const auto input = random_cz_circuit(8, 40, 5);
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const double blockade = 2.5;
  const auto routed = pb::route_with_swaps(input, positions, 1.5);
  const auto output =
      pb::schedule_static(routed.circuit, positions, blockade, config, 1);
  for (const auto& layer : output.layers) {
    const std::span<const std::size_t> gates =
        std::span(output.layer_gates)
            .subspan(layer.gates_begin, layer.gates_end - layer.gates_begin);
    for (std::size_t i = 0; i < gates.size(); ++i) {
      for (std::size_t j = i + 1; j < gates.size(); ++j) {
        const auto& g1 = routed.circuit.gate(gates[i]);
        const auto& g2 = routed.circuit.gate(gates[j]);
        if (!g1.is_two_qubit() || !g2.is_two_qubit()) continue;
        for (int a = 0; a < 2; ++a) {
          for (int b = 0; b < 2; ++b) {
            EXPECT_GE(
                pg::distance(positions[static_cast<std::size_t>(g1.q[a])],
                             positions[static_cast<std::size_t>(g2.q[b])]),
                blockade);
          }
        }
      }
    }
  }
  EXPECT_GT(output.runtime_us, 0.0);
}

TEST(Eldi, CompilesGhz) {
  pc::Circuit ghz(8, "ghz");
  ghz.h(0);
  for (int q = 0; q + 1 < 8; ++q) ghz.cx(q, q + 1);
  ghz.measure_all();
  const auto result = parallax::technique::compile(
      "eldi", ghz, ph::HardwareConfig::quera_aquila_256());
  EXPECT_EQ(result.technique, "eldi");
  // A GHZ chain on a compact grid with 8-connectivity routes with few or no
  // swaps.
  EXPECT_LE(result.stats.swap_gates, 2u);
  EXPECT_GT(result.runtime_us, 0.0);
}

TEST(Eldi, HighConnectivityCostsSwaps) {
  // All-to-all interactions on 16 qubits cannot be all-local on a 4x4 grid.
  pc::Circuit c(16, "dense");
  for (int a = 0; a < 16; ++a) {
    for (int b = a + 1; b < 16; ++b) c.cz(a, b);
  }
  const auto result = parallax::technique::compile(
      "eldi", c, ph::HardwareConfig::quera_aquila_256());
  EXPECT_GT(result.stats.swap_gates, 0u);
  EXPECT_EQ(result.stats.cz_gates, 120u);  // original CZs unchanged
}

TEST(Graphine, CompilesGhz) {
  pc::Circuit ghz(8, "ghz");
  ghz.h(0);
  for (int q = 0; q + 1 < 8; ++q) ghz.cx(q, q + 1);
  ghz.measure_all();
  parallax::pipeline::CompileOptions options;
  options.placement.anneal_iterations = 150;
  const auto result = parallax::technique::compile(
      "graphine", ghz, ph::HardwareConfig::quera_aquila_256(), options);
  EXPECT_EQ(result.technique, "graphine");
  EXPECT_GT(result.runtime_us, 0.0);
  EXPECT_EQ(result.stats.cz_gates, 7u + 0u * result.stats.swap_gates);
}

TEST(Baselines, EffectiveCzIncludesSwaps) {
  parallax::compiler::CompileStats stats;
  stats.cz_gates = 10;
  stats.swap_gates = 4;
  EXPECT_EQ(stats.effective_cz(), 22u);
}
