// Hardware model tests: config presets, AOD line constraints, machine state
// transitions, separation checks, and home bookkeeping.
#include <gtest/gtest.h>

#include "hardware/aod.hpp"
#include "hardware/config.hpp"
#include "hardware/machine.hpp"
#include "placement/discretize.hpp"

namespace ph = parallax::hardware;
namespace pp = parallax::placement;
namespace pg = parallax::geom;

TEST(Config, PresetsMatchTableII) {
  const auto quera = ph::HardwareConfig::quera_aquila_256();
  EXPECT_EQ(quera.n_atoms(), 256);
  EXPECT_EQ(quera.grid_side, 16);
  EXPECT_DOUBLE_EQ(quera.aod_speed_um_per_us, 55.0);
  EXPECT_DOUBLE_EQ(quera.trap_switch_time_us, 100.0);
  EXPECT_DOUBLE_EQ(quera.t1_seconds, 4.0);
  EXPECT_DOUBLE_EQ(quera.t2_seconds, 1.49);
  EXPECT_DOUBLE_EQ(quera.cz_error, 0.0048);
  EXPECT_DOUBLE_EQ(quera.swap_error, 0.0143);
  EXPECT_DOUBLE_EQ(quera.u3_error, 0.000127);
  EXPECT_DOUBLE_EQ(quera.readout_error, 0.05);
  EXPECT_DOUBLE_EQ(quera.atom_loss_rate, 0.007);
  EXPECT_EQ(quera.aod_rows, 20);

  const auto atom = ph::HardwareConfig::atom_computing_1225();
  EXPECT_EQ(atom.n_atoms(), 1225);
  EXPECT_EQ(atom.grid_side, 35);
}

TEST(Aod, HomeCoordinatesAreOrdered) {
  const ph::Aod aod(20, 20, 75.0, 1.0);
  EXPECT_TRUE(aod.ordering_valid());
  EXPECT_DOUBLE_EQ(aod.row_coord(0), 0.0);
  EXPECT_DOUBLE_EQ(aod.row_coord(19), 75.0);
}

TEST(Aod, SingleLineCentred) {
  const ph::Aod aod(1, 1, 75.0, 1.0);
  EXPECT_DOUBLE_EQ(aod.row_coord(0), 37.5);
}

TEST(Aod, AssignAndRelease) {
  ph::Aod aod(4, 4, 10.0, 0.5);
  aod.assign(1, 2, 7);
  EXPECT_EQ(aod.row_qubit(1), 7);
  EXPECT_EQ(aod.col_qubit(2), 7);
  EXPECT_EQ(aod.row_qubit(0), -1);
  aod.release(1, 2);
  EXPECT_EQ(aod.row_qubit(1), -1);
  EXPECT_EQ(aod.col_qubit(2), -1);
}

TEST(Aod, OrderingInvalidAfterCross) {
  ph::Aod aod(3, 3, 10.0, 1.0);
  aod.set_row_coord(0, 6.0);  // crosses row 1 at 5.0
  EXPECT_FALSE(aod.ordering_valid());
}

namespace {
pp::PhysicalTopology simple_topology(const ph::HardwareConfig& config,
                                     std::size_t n) {
  pp::Topology normalized;
  const auto side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  for (std::size_t q = 0; q < n; ++q) {
    normalized.positions.push_back(
        {static_cast<double>(q % side) / static_cast<double>(side),
         static_cast<double>(q / side) / static_cast<double>(side)});
  }
  return pp::discretize(normalized, config);
}
}  // namespace

TEST(Machine, InitialStateAllSlm) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const auto topology = simple_topology(config, 9);
  ph::Machine machine(config, topology);
  EXPECT_EQ(machine.n_qubits(), 9);
  for (std::int32_t q = 0; q < 9; ++q) {
    EXPECT_FALSE(machine.atom(q).in_aod());
    EXPECT_EQ(machine.position(q),
              machine.grid().position(machine.atom(q).slm_site));
  }
  EXPECT_FALSE(machine.separation_violation().has_value());
}

TEST(Machine, AssignToAodPositionsLines) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  ph::Machine machine(config, simple_topology(config, 4));
  const auto pos = machine.position(2);
  machine.assign_to_aod(2, 0, 0);
  EXPECT_TRUE(machine.atom(2).in_aod());
  EXPECT_DOUBLE_EQ(machine.aod().row_coord(0), pos.y);
  EXPECT_DOUBLE_EQ(machine.aod().col_coord(0), pos.x);
}

TEST(Machine, MoveAodAtomUpdatesEverything) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  ph::Machine machine(config, simple_topology(config, 4));
  machine.assign_to_aod(0, 0, 0);
  machine.move_aod_atom(0, {33.0, 44.0});
  EXPECT_EQ(machine.position(0), (pg::Point{33.0, 44.0}));
  EXPECT_DOUBLE_EQ(machine.aod().col_coord(0), 33.0);
  EXPECT_DOUBLE_EQ(machine.aod().row_coord(0), 44.0);
}

TEST(Machine, WithinInteractionUsesRadius) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const auto topology = simple_topology(config, 9);
  ph::Machine machine(config, topology);
  // The discretization picks the radius as the bottleneck connectivity
  // distance, so every atom must have at least one in-range partner.
  for (std::int32_t a = 0; a < 9; ++a) {
    bool has_partner = false;
    for (std::int32_t b = 0; b < 9 && !has_partner; ++b) {
      has_partner = (a != b) && machine.within_interaction(a, b);
    }
    EXPECT_TRUE(has_partner) << "atom " << a << " isolated";
  }
  // And the radius must exceed the separation floor.
  EXPECT_GT(machine.interaction_radius(),
            machine.config().min_separation_um);
}

TEST(Machine, NearestAtomExcludes) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  ph::Machine machine(config, simple_topology(config, 4));
  const auto [q, d] = machine.nearest_atom(machine.position(0), 0);
  EXPECT_NE(q, 0);
  EXPECT_GT(d, 0.0);
}

TEST(Machine, PlacementClearDetectsCrowding) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  ph::Machine machine(config, simple_topology(config, 4));
  const auto p1 = machine.position(1);
  EXPECT_FALSE(machine.placement_clear(0, p1));
  EXPECT_TRUE(machine.placement_clear(0, p1, /*ignore=*/1));
}

TEST(Machine, SeparationViolationDetected) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  ph::Machine machine(config, simple_topology(config, 4));
  machine.assign_to_aod(0, 0, 0);
  machine.move_aod_atom(0, machine.position(1) + pg::Point{0.1, 0.0});
  const auto violation = machine.separation_violation();
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->first, 0);
  EXPECT_EQ(violation->second, 1);
}

TEST(Machine, HomeReturnRestoresPositions) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  ph::Machine machine(config, simple_topology(config, 4));
  machine.assign_to_aod(0, 0, 0);
  machine.save_home();
  const auto home = machine.position(0);
  machine.move_aod_atom(0, home + pg::Point{11.0, 0.0});
  const double distance = machine.return_all_home();
  EXPECT_DOUBLE_EQ(distance, 11.0);
  EXPECT_EQ(machine.position(0), home);
  EXPECT_DOUBLE_EQ(machine.aod().col_coord(0), home.x);
}
