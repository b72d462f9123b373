#include "hardware/machine.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace parallax::hardware {

namespace {
/// AOD lines need some slack to slot between each other; use the smaller of
/// the atom separation constraint and half the initial line spacing so that
/// even dense AOD configurations (Fig. 13's 40-line ablation) stay feasible.
double line_gap(const HardwareConfig& config) {
  const double extent = std::max(config.extent_um(), 1.0);
  const auto max_lines = std::max(config.aod_rows, config.aod_cols);
  const double spacing = extent / std::max(1, max_lines - 1);
  return std::min(config.min_separation_um, spacing / 2.0);
}
}  // namespace

Machine::Machine(const HardwareConfig& config,
                 const placement::PhysicalTopology& topology)
    : config_(config),
      grid_(topology.grid),
      interaction_radius_um_(topology.interaction_radius_um),
      blockade_radius_um_(topology.blockade_radius_um),
      aod_(config.aod_rows, config.aod_cols, config.extent_um(),
           line_gap(config)) {
  atoms_.resize(topology.sites.size());
  for (std::size_t q = 0; q < topology.sites.size(); ++q) {
    Atom& a = atoms_[q];
    a.trap = TrapKind::kSlm;
    a.slm_site = topology.sites[q];
    a.position = grid_.position(a.slm_site);
  }
}

void Machine::assign_to_aod(std::int32_t q, std::int32_t row,
                            std::int32_t col) {
  Atom& a = atoms_[static_cast<std::size_t>(q)];
  assert(!a.in_aod());
  aod_.assign(row, col, q);
  a.trap = TrapKind::kAod;
  a.aod_row = row;
  a.aod_col = col;
  // Lines meet at the atom; callers position them beforehand if the atom's
  // own coordinates would break line ordering.
  aod_.set_row_coord(row, a.position.y);
  aod_.set_col_coord(col, a.position.x);
}

void Machine::move_aod_atom(std::int32_t q, geom::Point target) {
  Atom& a = atoms_[static_cast<std::size_t>(q)];
  assert(a.in_aod());
  aod_.set_row_coord(a.aod_row, target.y);
  aod_.set_col_coord(a.aod_col, target.x);
  a.position = target;
}

std::pair<std::int32_t, double> Machine::nearest_atom(
    geom::Point point, std::int32_t exclude, std::int32_t exclude2) const {
  std::int32_t best = -1;
  double best_d = std::numeric_limits<double>::infinity();
  for (std::int32_t q = 0; q < n_qubits(); ++q) {
    if (q == exclude || q == exclude2) continue;
    const double d = geom::distance(position(q), point);
    if (d < best_d) {
      best_d = d;
      best = q;
    }
  }
  return {best, best_d};
}

std::optional<std::pair<std::int32_t, std::int32_t>>
Machine::separation_violation() const {
  const double min_sep = config_.min_separation_um - 1e-9;
  for (std::int32_t a = 0; a < n_qubits(); ++a) {
    for (std::int32_t b = a + 1; b < n_qubits(); ++b) {
      if (geom::distance_below(position(a), position(b), min_sep)) {
        return std::make_pair(a, b);
      }
    }
  }
  return std::nullopt;
}

bool Machine::placement_clear(std::int32_t q, geom::Point point,
                              std::int32_t ignore) const {
  const double min_sep = config_.min_separation_um - 1e-9;
  for (std::int32_t other = 0; other < n_qubits(); ++other) {
    if (other == q || other == ignore) continue;
    if (geom::distance_below(position(other), point, min_sep)) return false;
  }
  return true;
}

void Machine::save_home() {
  home_positions_.resize(atoms_.size());
  for (std::size_t q = 0; q < atoms_.size(); ++q) {
    home_positions_[q] = atoms_[q].position;
  }
  home_row_coords_.resize(static_cast<std::size_t>(aod_.n_rows()));
  for (std::int32_t r = 0; r < aod_.n_rows(); ++r) {
    home_row_coords_[static_cast<std::size_t>(r)] = aod_.row_coord(r);
  }
  home_col_coords_.resize(static_cast<std::size_t>(aod_.n_cols()));
  for (std::int32_t c = 0; c < aod_.n_cols(); ++c) {
    home_col_coords_[static_cast<std::size_t>(c)] = aod_.col_coord(c);
  }
}

double Machine::return_all_home() {
  assert(!home_positions_.empty());
  double max_distance = 0.0;
  for (std::size_t q = 0; q < atoms_.size(); ++q) {
    Atom& a = atoms_[q];
    if (!a.in_aod()) continue;
    const double d = geom::distance(a.position, home_positions_[q]);
    max_distance = std::max(max_distance, d);
    a.position = home_positions_[q];
  }
  for (std::int32_t r = 0; r < aod_.n_rows(); ++r) {
    aod_.set_row_coord(r, home_row_coords_[static_cast<std::size_t>(r)]);
  }
  for (std::int32_t c = 0; c < aod_.n_cols(); ++c) {
    aod_.set_col_coord(c, home_col_coords_[static_cast<std::size_t>(c)]);
  }
  return max_distance;
}

geom::Point Machine::home_position(std::int32_t q) const {
  return home_positions_[static_cast<std::size_t>(q)];
}

}  // namespace parallax::hardware
