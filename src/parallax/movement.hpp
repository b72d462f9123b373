// The recursive AOD movement engine (paper Sec. II-D): moves a mobile atom
// into the Rydberg interaction radius of a partner atom. Obstructions are
// resolved recursively —
//   * AOD atoms inside the minimum-separation zone of the moving atom are
//     pushed away (and their own obstructions are pushed in turn),
//   * AOD lines whose non-crossing order would be violated displace the
//     interfering neighbour lines recursively,
//   * static SLM atoms cannot be displaced; the engine instead picks a
//     different approach point around the partner.
// Recursion is capped at 80 iterations (the paper's hard limit); failure is
// reported so the scheduler can fall back to a 100 us trap change.
#pragma once

#include <cstdint>
#include <vector>

#include "hardware/machine.hpp"

namespace parallax::compiler {

struct MoveOutcome {
  bool success = false;
  /// Maximum distance travelled by any single atom in this operation — the
  /// quantity the runtime model charges (all tandem moves overlap in time).
  double max_distance_um = 0.0;
  int displaced_atoms = 0;  // other AOD atoms pushed out of the way
  int iterations = 0;       // recursion budget consumed
};

class MovementEngine {
 public:
  explicit MovementEngine(hardware::Machine& machine, int max_iterations = 80)
      : machine_(&machine), max_iterations_(max_iterations) {}

  /// Moves AOD atom `mover` within the interaction radius of `partner`.
  /// On failure the machine state is restored to the pre-call configuration.
  [[nodiscard]] MoveOutcome move_into_range(std::int32_t mover,
                                            std::int32_t partner);

 private:
  /// Places `q` at `target`, recursively displacing obstructing AOD atoms
  /// and lines. Returns false when the budget runs out or a static atom
  /// blocks the exact spot.
  bool place_atom(std::int32_t q, geom::Point target, int depth);

  /// Pushes the AOD atom `q` radially away from `from` until it clears the
  /// minimum separation, recursing on secondary obstructions.
  bool push_away(std::int32_t q, geom::Point from, int depth);

  /// Resolves AOD line-ordering conflicts for atom q sitting at `target`.
  bool resolve_line_order(std::int32_t q, geom::Point target, int depth);

  /// Moves line `line` (row when is_row) to `coord`, recursively pushing
  /// neighbour lines outward and carrying any occupant atom along.
  bool move_line(bool is_row, std::int32_t line, double coord, int depth);

  /// Pushes the neighbours of `line` out of the way so it can sit at
  /// `coord`; does not move `line` itself.
  bool make_room(bool is_row, std::int32_t line, double coord, int depth);

  void note_move(std::int32_t q, geom::Point from, geom::Point to);

  hardware::Machine* machine_;
  int max_iterations_;
  int iterations_used_ = 0;
  double max_distance_ = 0.0;
  int displaced_ = 0;
  /// Distance each qubit has travelled in the current move_into_range call
  /// (indexed by qubit, reset per call).
  std::vector<double> travel_;
};

}  // namespace parallax::compiler
