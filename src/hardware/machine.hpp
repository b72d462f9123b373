// The machine model: a set of atoms (one per logical qubit) over an SLM site
// grid plus an AOD. This is the mutable state the Parallax scheduler drives;
// it exposes primitive mutations and constraint predicates, while movement
// policy (recursive displacement, trap-change fallback) lives in
// src/parallax/movement.*.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "geometry/grid.hpp"
#include "hardware/aod.hpp"
#include "hardware/atom.hpp"
#include "hardware/config.hpp"
#include "placement/discretize.hpp"

namespace parallax::hardware {

class Machine {
 public:
  /// Builds the machine with every atom loaded into its SLM site per the
  /// discretized topology.
  Machine(const HardwareConfig& config,
          const placement::PhysicalTopology& topology);

  [[nodiscard]] const HardwareConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] const geom::Grid& grid() const noexcept { return grid_; }
  [[nodiscard]] std::int32_t n_qubits() const noexcept {
    return static_cast<std::int32_t>(atoms_.size());
  }
  [[nodiscard]] const Atom& atom(std::int32_t q) const {
    return atoms_[static_cast<std::size_t>(q)];
  }
  [[nodiscard]] geom::Point position(std::int32_t q) const {
    return atoms_[static_cast<std::size_t>(q)].position;
  }
  [[nodiscard]] Aod& aod() noexcept { return aod_; }
  [[nodiscard]] const Aod& aod() const noexcept { return aod_; }

  [[nodiscard]] double interaction_radius() const noexcept {
    return interaction_radius_um_;
  }
  [[nodiscard]] double blockade_radius() const noexcept {
    return blockade_radius_um_;
  }
  [[nodiscard]] bool within_interaction(std::int32_t a,
                                        std::int32_t b) const {
    return geom::distance(position(a), position(b)) <=
           interaction_radius_um_;
  }

  /// Lifts a (currently SLM) atom into the AOD at the given row/column pair.
  /// The lines are positioned at the atom's coordinates — callers must have
  /// resolved ordering conflicts first (see parallax::select_aod_qubits).
  void assign_to_aod(std::int32_t q, std::int32_t row, std::int32_t col);

  /// Primitive AOD move: repositions the atom and its two lines. No
  /// validation — the movement engine performs constraint resolution and
  /// uses the predicates below.
  void move_aod_atom(std::int32_t q, geom::Point target);

  /// Nearest other atom to `point`, excluding qubit `exclude` (and a second
  /// optional exclusion); returns {qubit, distance}.
  [[nodiscard]] std::pair<std::int32_t, double> nearest_atom(
      geom::Point point, std::int32_t exclude,
      std::int32_t exclude2 = -1) const;

  /// Any atom pair violating the minimum separation (O(n^2); for tests and
  /// debug assertions).
  [[nodiscard]] std::optional<std::pair<std::int32_t, std::int32_t>>
  separation_violation() const;

  /// True if placing an atom of qubit `q` at `point` keeps min separation
  /// against all other atoms.
  [[nodiscard]] bool placement_clear(std::int32_t q, geom::Point point,
                                     std::int32_t ignore = -1) const;

  /// Records current AOD line coordinates and atom positions as "home".
  void save_home();
  /// Restores every AOD atom to its home position; returns the maximum
  /// distance any atom travelled to get back (for the timing model).
  double return_all_home();
  /// Home position of an AOD atom (valid after save_home()).
  [[nodiscard]] geom::Point home_position(std::int32_t q) const;
  /// Home coordinate of an AOD row / column (valid after save_home()).
  [[nodiscard]] double home_row_coord(std::int32_t row) const {
    return home_row_coords_[static_cast<std::size_t>(row)];
  }
  [[nodiscard]] double home_col_coord(std::int32_t col) const {
    return home_col_coords_[static_cast<std::size_t>(col)];
  }

 private:
  HardwareConfig config_;
  geom::Grid grid_;
  double interaction_radius_um_;
  double blockade_radius_um_;
  std::vector<Atom> atoms_;
  Aod aod_;
  std::vector<geom::Point> home_positions_;
  std::vector<double> home_row_coords_;
  std::vector<double> home_col_coords_;
};

}  // namespace parallax::hardware
