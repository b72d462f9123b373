#include "parallax/movement.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <vector>

namespace parallax::compiler {

namespace {

/// Snapshot of all mutable AOD state, for rollback when a move attempt fails
/// (the paper resolves failed moves with a trap change; the machine must be
/// left exactly as it was).
struct AodSnapshot {
  std::vector<geom::Point> positions;
  std::vector<double> rows;
  std::vector<double> cols;

  explicit AodSnapshot(const hardware::Machine& machine) {
    positions.reserve(static_cast<std::size_t>(machine.n_qubits()));
    for (std::int32_t q = 0; q < machine.n_qubits(); ++q) {
      positions.push_back(machine.position(q));
    }
    const auto& aod = machine.aod();
    for (std::int32_t r = 0; r < aod.n_rows(); ++r) {
      rows.push_back(aod.row_coord(r));
    }
    for (std::int32_t c = 0; c < aod.n_cols(); ++c) {
      cols.push_back(aod.col_coord(c));
    }
  }

  void restore(hardware::Machine& machine) const {
    for (std::int32_t q = 0; q < machine.n_qubits(); ++q) {
      if (machine.atom(q).in_aod()) {
        machine.move_aod_atom(q, positions[static_cast<std::size_t>(q)]);
      }
    }
    auto& aod = machine.aod();
    for (std::int32_t r = 0; r < aod.n_rows(); ++r) {
      aod.set_row_coord(r, rows[static_cast<std::size_t>(r)]);
    }
    for (std::int32_t c = 0; c < aod.n_cols(); ++c) {
      aod.set_col_coord(c, cols[static_cast<std::size_t>(c)]);
    }
  }
};

geom::Point rotate(geom::Point v, double radians) {
  const double c = std::cos(radians);
  const double s = std::sin(radians);
  return {v.x * c - v.y * s, v.x * s + v.y * c};
}

}  // namespace

void MovementEngine::note_move(std::int32_t q, geom::Point from,
                               geom::Point to) {
  double& travel = travel_[static_cast<std::size_t>(q)];
  travel += geom::distance(from, to);
  max_distance_ = std::max(max_distance_, travel);
}

bool MovementEngine::move_line(bool is_row, std::int32_t line, double coord,
                               int depth) {
  auto& machine = *machine_;
  auto& aod = machine.aod();
  if (++iterations_used_ > max_iterations_ || depth > max_iterations_) {
    return false;
  }
  if (!make_room(is_row, line, coord, depth)) return false;

  const std::int32_t occupant = is_row ? aod.row_qubit(line)
                                       : aod.col_qubit(line);
  if (occupant < 0) {
    if (is_row) {
      aod.set_row_coord(line, coord);
    } else {
      aod.set_col_coord(line, coord);
    }
    return true;
  }

  // Occupied line: the atom rides along (tandem constraint). Its landing
  // spot may hit a static atom; nudge further along the push direction a
  // few times before giving up.
  const double old_coord = is_row ? aod.row_coord(line) : aod.col_coord(line);
  const double direction = (coord >= old_coord) ? 1.0 : -1.0;
  const double step = machine.config().min_separation_um;
  ++displaced_;
  for (int attempt = 0; attempt < 4; ++attempt) {
    const double c = coord + direction * step * attempt;
    geom::Point p = machine.position(occupant);
    if (is_row) {
      p.y = c;
    } else {
      p.x = c;
    }
    if (place_atom(occupant, p, depth + 1)) return true;
    if (iterations_used_ > max_iterations_) return false;
  }
  return false;
}

bool MovementEngine::make_room(bool is_row, std::int32_t line, double coord,
                               int depth) {
  auto& machine = *machine_;
  auto& aod = machine.aod();
  const double gap = aod.min_line_gap();
  const std::int32_t count = is_row ? aod.n_rows() : aod.n_cols();
  auto coord_of = [&](std::int32_t l) {
    return is_row ? aod.row_coord(l) : aod.col_coord(l);
  };
  // Only the neighbour on the side we move toward can newly violate the
  // gap; pushing it propagates outward in one direction, so the recursion
  // terminates after at most `count` lines.
  if (line + 1 < count && coord_of(line + 1) < coord + gap) {
    if (!move_line(is_row, line + 1, coord + gap * 1.01, depth + 1)) {
      return false;
    }
  }
  if (line - 1 >= 0 && coord_of(line - 1) > coord - gap) {
    if (!move_line(is_row, line - 1, coord - gap * 1.01, depth + 1)) {
      return false;
    }
  }
  return true;
}

bool MovementEngine::resolve_line_order(std::int32_t q, geom::Point target,
                                        int depth) {
  const hardware::Atom& atom = machine_->atom(q);
  return make_room(/*is_row=*/true, atom.aod_row, target.y, depth) &&
         make_room(/*is_row=*/false, atom.aod_col, target.x, depth);
}

bool MovementEngine::push_away(std::int32_t q, geom::Point from, int depth) {
  auto& machine = *machine_;
  const double min_sep = machine.config().min_separation_um;
  const geom::Point pos = machine.position(q);
  geom::Point dir = pos - from;
  const double d = dir.norm();
  if (d > 1e-12) {
    dir = dir * (1.0 / d);
  } else {
    dir = {1.0, 0.0};  // coincident: pick an arbitrary direction
  }
  const double needed = min_sep * 1.05 - d;
  // Try the radial direction first, then rotations, in case a static atom
  // sits exactly along the escape path.
  constexpr double kAngles[] = {0.0, 0.7853981633974483, -0.7853981633974483,
                                1.5707963267948966, -1.5707963267948966};
  for (const double angle : kAngles) {
    if (iterations_used_ > max_iterations_) return false;
    const geom::Point candidate =
        pos + rotate(dir, angle) * std::max(needed, min_sep * 0.55);
    if (place_atom(q, candidate, depth + 1)) return true;
  }
  return false;
}

bool MovementEngine::place_atom(std::int32_t q, geom::Point target,
                                int depth) {
  auto& machine = *machine_;
  if (++iterations_used_ > max_iterations_ || depth > max_iterations_) {
    return false;
  }

  // Static atoms cannot yield; an SLM atom inside the separation zone of the
  // target makes this spot infeasible.
  const double min_sep = machine.config().min_separation_um;
  for (std::int32_t other = 0; other < machine.n_qubits(); ++other) {
    if (other == q || machine.atom(other).in_aod()) continue;
    if (geom::distance_below(machine.position(other), target, min_sep)) {
      return false;
    }
  }

  if (!resolve_line_order(q, target, depth)) return false;

  // Mobile atoms in the way are displaced recursively.
  for (std::int32_t other = 0; other < machine.n_qubits(); ++other) {
    if (other == q || !machine.atom(other).in_aod()) continue;
    if (geom::distance_below(machine.position(other), target, min_sep)) {
      if (!push_away(other, target, depth + 1)) return false;
    }
  }

  const geom::Point from = machine.position(q);
  machine.move_aod_atom(q, target);
  note_move(q, from, target);
  return true;
}

MoveOutcome MovementEngine::move_into_range(std::int32_t mover,
                                            std::int32_t partner) {
  auto& machine = *machine_;
  MoveOutcome outcome;
  iterations_used_ = 0;
  max_distance_ = 0.0;
  displaced_ = 0;
  travel_.assign(static_cast<std::size_t>(machine.n_qubits()), 0.0);

  const double r = machine.interaction_radius();
  const double min_sep = machine.config().min_separation_um;
  const double approach =
      std::clamp(0.9 * r, std::min(1.2 * min_sep, 0.98 * r), 0.98 * r);
  const double extent = machine.grid().extent();

  // Approach points around the partner, nearest-to-current-direction first.
  constexpr double kDeg = std::numbers::pi / 180.0;
  constexpr double kAngles[] = {0.0,         30.0 * kDeg,  -30.0 * kDeg,
                                60.0 * kDeg, -60.0 * kDeg, 90.0 * kDeg,
                                -90.0 * kDeg, 135.0 * kDeg, -135.0 * kDeg,
                                180.0 * kDeg};

  const AodSnapshot initial(machine);

  // The recursive displacement of a successful placement may carry the
  // *partner* along (its AOD line can be an order-blocker of the mover's).
  // When that happens the mover chases the partner's new position for a few
  // rounds instead of giving up — a genuine physical sequence of moves whose
  // travel accumulates into the timing model.
  constexpr int kChaseRounds = 4;
  for (int round = 0; round < kChaseRounds; ++round) {
    const geom::Point partner_pos = machine.position(partner);
    geom::Point dir = machine.position(mover) - partner_pos;
    const double d = dir.norm();
    dir = (d > 1e-12) ? dir * (1.0 / d) : geom::Point{1.0, 0.0};

    bool placed = false;
    for (const double angle : kAngles) {
      geom::Point target = partner_pos + rotate(dir, angle) * approach;
      target.x = std::clamp(target.x, 0.0, extent);
      target.y = std::clamp(target.y, 0.0, extent);
      if (geom::distance(target, partner_pos) > r) continue;  // clamped out
      if (geom::distance(target, partner_pos) < min_sep) continue;
      // A mobile partner rides its own AOD lines: approaching almost
      // axis-aligned would force the mover's row (or column) within the
      // line gap of the partner's, pushing the partner away with it. Skip
      // those angles — an oblique approach keeps both lines clear.
      if (machine.atom(partner).in_aod()) {
        const double gap = machine.aod().min_line_gap() * 1.05;
        if (std::abs(target.y - partner_pos.y) < gap ||
            std::abs(target.x - partner_pos.x) < gap) {
          continue;
        }
      }

      // Roll back failed attempts (machine state and travel accounting).
      const AodSnapshot attempt_start(machine);
      const std::vector<double> travel_start = travel_;
      const double max_distance_start = max_distance_;
      const int displaced_start = displaced_;
      if (place_atom(mover, target, 0)) {
        placed = true;
        break;
      }
      attempt_start.restore(machine);
      travel_ = travel_start;
      max_distance_ = max_distance_start;
      displaced_ = displaced_start;
      if (iterations_used_ > max_iterations_) break;  // budget exhausted
    }

    if (!placed) break;
    if (machine.within_interaction(mover, partner)) {
      outcome.success = true;
      outcome.max_distance_um = max_distance_;
      outcome.displaced_atoms = displaced_;
      outcome.iterations = iterations_used_;
      return outcome;
    }
    // Partner drifted: keep the state and chase in the next round.
    if (iterations_used_ > max_iterations_) break;
  }

  initial.restore(machine);
  outcome.success = false;
  outcome.iterations = iterations_used_;
  return outcome;
}

}  // namespace parallax::compiler
