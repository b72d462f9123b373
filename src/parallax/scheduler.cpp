#include "parallax/scheduler.hpp"

#include <algorithm>
#include <bit>
#include <cassert>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "circuit/dag.hpp"
#include "parallax/movement.hpp"

namespace parallax::compiler {

namespace {

double gate_time_us(const circuit::Gate& g,
                    const hardware::HardwareConfig& config) {
  switch (g.type) {
    case circuit::GateType::kU3: return config.u3_time_us;
    case circuit::GateType::kCZ: return config.cz_time_us;
    case circuit::GateType::kSwap: return config.swap_time_us;
    case circuit::GateType::kMeasure: return 0.0;  // readout happens once,
                                                   // post-circuit
    case circuit::GateType::kBarrier: return 0.0;
  }
  return 0.0;
}

/// Blockade interference at current atom positions: two CZ gates cannot run
/// in the same layer if any endpoint of one lies within the blockade radius
/// of an endpoint of the other (paper Fig. 3a).
bool blockade_conflict(const hardware::Machine& machine,
                       const circuit::Gate& g1, const circuit::Gate& g2) {
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 2; ++j) {
      if (geom::distance(machine.position(g1.q[i]),
                         machine.position(g2.q[j])) <
          machine.blockade_radius()) {
        return true;
      }
    }
  }
  return false;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// MovementEngine::move_into_range, resolved once per (mover, partner) for
/// the current home configuration.
///
/// Every call the scheduler makes starts from home: a layer runs at most one
/// successful move and returns it home afterwards (Algorithm 1 line 24), and
/// the engine rolls a failed move back before the trap-change fallback. So
/// until home itself changes (save_home(), then clear()), a pair's outcome
/// and the configuration it leaves are a function of the pair alone. A
/// failure stores only its outcome. A success also stores the AOD atoms and
/// lines that differ from home afterwards — a handful per step of the
/// engine's budget — and a replay writes exactly those back.
class MoveMemo {
 public:
  MoveMemo(hardware::Machine& machine, int max_iterations)
      : machine_(&machine), engine_(machine, max_iterations) {}

  MoveOutcome move_into_range(std::int32_t mover, std::int32_t partner) {
    const std::uint64_t key =
        (std::uint64_t{static_cast<std::uint32_t>(mover)} << 32) |
        static_cast<std::uint32_t>(partner);
    if (const auto it = entries_.find(key); it != entries_.end()) {
      ++replays_;
      replay(it->second);
      return it->second.outcome;
    }
    ++evaluations_;
    Entry entry;
    entry.outcome = engine_.move_into_range(mover, partner);
    if (entry.outcome.success) record_changes(entry);
    return entries_.emplace(key, std::move(entry)).first->second.outcome;
  }

  /// Home moved: every stored outcome is stale.
  void clear() { entries_.clear(); }

  [[nodiscard]] std::size_t evaluations() const noexcept {
    return evaluations_;
  }
  [[nodiscard]] std::size_t replays() const noexcept { return replays_; }

 private:
  struct Entry {
    MoveOutcome outcome;
    std::vector<std::pair<std::int32_t, geom::Point>> atoms;
    std::vector<std::pair<std::int32_t, double>> rows;
    std::vector<std::pair<std::int32_t, double>> cols;
  };

  void record_changes(Entry& entry) const {
    const hardware::Machine& machine = *machine_;
    const hardware::Aod& aod = machine.aod();
    // A replayed atom move also writes the atom's two lines, so those lines
    // are stored even if they ended where they started.
    std::vector<char> keep_row(static_cast<std::size_t>(aod.n_rows()), 0);
    std::vector<char> keep_col(static_cast<std::size_t>(aod.n_cols()), 0);
    for (std::int32_t q = 0; q < machine.n_qubits(); ++q) {
      const hardware::Atom& atom = machine.atom(q);
      const geom::Point home = machine.home_position(q);
      if (!atom.in_aod() || (same_bits(atom.position.x, home.x) &&
                             same_bits(atom.position.y, home.y))) {
        continue;
      }
      entry.atoms.emplace_back(q, atom.position);
      keep_row[static_cast<std::size_t>(atom.aod_row)] = 1;
      keep_col[static_cast<std::size_t>(atom.aod_col)] = 1;
    }
    for (std::int32_t r = 0; r < aod.n_rows(); ++r) {
      if (keep_row[static_cast<std::size_t>(r)] != 0 ||
          !same_bits(aod.row_coord(r), machine.home_row_coord(r))) {
        entry.rows.emplace_back(r, aod.row_coord(r));
      }
    }
    for (std::int32_t c = 0; c < aod.n_cols(); ++c) {
      if (keep_col[static_cast<std::size_t>(c)] != 0 ||
          !same_bits(aod.col_coord(c), machine.home_col_coord(c))) {
        entry.cols.emplace_back(c, aod.col_coord(c));
      }
    }
  }

  void replay(const Entry& entry) {
    hardware::Machine& machine = *machine_;
    for (const auto& [q, position] : entry.atoms) {
      machine.move_aod_atom(q, position);
    }
    hardware::Aod& aod = machine.aod();
    for (const auto& [r, coord] : entry.rows) aod.set_row_coord(r, coord);
    for (const auto& [c, coord] : entry.cols) aod.set_col_coord(c, coord);
  }

  hardware::Machine* machine_;
  MovementEngine engine_;
  std::unordered_map<std::uint64_t, Entry> entries_;
  std::size_t evaluations_ = 0;
  std::size_t replays_ = 0;
};

}  // namespace

ScheduleOutput schedule_gates(const circuit::Circuit& circuit,
                              hardware::Machine& machine,
                              const SchedulerOptions& options) {
  if (circuit.swap_count() != 0) {
    throw std::invalid_argument(
        "Parallax scheduler requires a SWAP-free circuit (transpile first)");
  }

  ScheduleOutput output;
  circuit::DependencyTracker dag(circuit);
  MoveMemo moves(machine, options.max_move_iterations);
  util::Rng rng(options.shuffle_seed);
  const auto& config = machine.config();

  machine.save_home();

  while (!dag.done()) {
    Layer layer;
    bool moved_this_layer = false;

    // --- lines 8-11: one ready gate per qubit -------------------------------
    std::vector<std::size_t> candidates;
    for (std::int32_t q = 0; q < circuit.n_qubits(); ++q) {
      const auto next = dag.next_gate(q);
      if (!next || !dag.is_ready(*next)) continue;
      // A two-qubit gate surfaces from both endpoints; keep one copy.
      if (!candidates.empty() &&
          std::find(candidates.begin(), candidates.end(), *next) !=
              candidates.end()) {
        continue;
      }
      candidates.push_back(*next);
    }
    assert(!candidates.empty());  // a non-done DAG always has a ready head

    // --- lines 12-19: movement resolution for out-of-range CZs --------------
    // Trap changes are *recorded* here but only charged (time + error) for
    // gates that survive the blockade filter and execute — an ejected gate
    // retries in a later layer and must not accumulate phantom trap
    // changes. The single physical AOD move is different: it mutates
    // machine state, so the moved gate is pinned into the layer.
    std::vector<std::size_t> accepted;
    std::vector<char> needs_trap_change;  // parallel to `accepted`
    std::size_t moved_gate = static_cast<std::size_t>(-1);
    for (const std::size_t gi : candidates) {
      const circuit::Gate& g = circuit.gate(gi);
      if (g.type != circuit::GateType::kCZ ||
          machine.within_interaction(g.q[0], g.q[1])) {
        accepted.push_back(gi);
        needs_trap_change.push_back(0);
        continue;
      }

      // Prefer moving a mobile endpoint; one move-into-range per layer.
      const bool q0_mobile = machine.atom(g.q[0]).in_aod();
      const bool q1_mobile = machine.atom(g.q[1]).in_aod();
      if ((q0_mobile || q1_mobile) && !moved_this_layer) {
        const std::int32_t mobile = q0_mobile ? g.q[0] : g.q[1];
        const std::int32_t anchor = q0_mobile ? g.q[1] : g.q[0];
        const MoveOutcome move = moves.move_into_range(mobile, anchor);
        if (move.success) {
          moved_this_layer = true;
          moved_gate = gi;
          ++output.stats.aod_moves;
          ++layer.aod_moves;
          layer.move_distance_um =
              std::max(layer.move_distance_um, move.max_distance_um);
          output.stats.total_move_distance_um += move.max_distance_um;
          output.stats.max_move_distance_um = std::max(
              output.stats.max_move_distance_um, move.max_distance_um);
          accepted.push_back(gi);
          needs_trap_change.push_back(0);
        } else {
          // Failed moves are resolved with a trap change (paper Sec. III).
          accepted.push_back(gi);
          needs_trap_change.push_back(1);
        }
        continue;
      }
      if (!q0_mobile && !q1_mobile) {
        // Both static and out of range: trap-and-move excursion (the ~1.3%
        // case). The atom is temporarily AOD-trapped, moved into range,
        // the gate runs, and it returns to its SLM trap within the layer.
        accepted.push_back(gi);
        needs_trap_change.push_back(2);  // 2 marks the SLM-SLM statistic
        continue;
      }
      // Mobile endpoint exists but this layer already moved: defer the gate
      // to a later layer (paper lines 16-17).
    }

    // --- line 20: shuffle to avoid starvation --------------------------------
    {
      std::vector<std::size_t> order(accepted.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      rng.shuffle(order);
      // Pin the physically-moved gate to the front so the blockade filter
      // can never waste the move.
      for (std::size_t i = 0; i < order.size(); ++i) {
        if (accepted[order[i]] == moved_gate) {
          std::swap(order[0], order[i]);
          break;
        }
      }
      std::vector<std::size_t> acc2(accepted.size());
      std::vector<char> tc2(accepted.size());
      for (std::size_t i = 0; i < order.size(); ++i) {
        acc2[i] = accepted[order[i]];
        tc2[i] = needs_trap_change[order[i]];
      }
      accepted = std::move(acc2);
      needs_trap_change = std::move(tc2);
    }

    // --- lines 21-22: blockade-interference serialization --------------------
    std::vector<std::size_t> final_gates;
    for (std::size_t idx = 0; idx < accepted.size(); ++idx) {
      const std::size_t gi = accepted[idx];
      const circuit::Gate& g = circuit.gate(gi);
      if (g.type == circuit::GateType::kCZ) {
        // Re-verify range: the layer's AOD move may have recursively
        // displaced an endpoint of a gate that was in range when it was
        // accepted. Such gates are ejected and retry next layer.
        // (Trap-change gates execute via an excursion and are exempt.)
        if (needs_trap_change[idx] == 0 &&
            !machine.within_interaction(g.q[0], g.q[1])) {
          continue;
        }
        bool conflicts = false;
        for (const std::size_t prior : final_gates) {
          const circuit::Gate& pg = circuit.gate(prior);
          if (pg.type == circuit::GateType::kCZ &&
              blockade_conflict(machine, g, pg)) {
            conflicts = true;
            break;
          }
        }
        if (conflicts) continue;  // ejected back to the pool
      }
      if (needs_trap_change[idx] != 0) {
        ++layer.trap_changes;
        ++output.stats.trap_changes;
        if (needs_trap_change[idx] == 2) ++output.stats.slm_slm_cz;
      }
      final_gates.push_back(gi);
    }
    if (final_gates.empty()) {
      // Progress guarantee: if every accepted gate was ejected (which the
      // movement engine's post-conditions should prevent), force the first
      // accepted gate through with a trap-change excursion rather than
      // spinning on an empty layer.
      assert(!accepted.empty());
      ++layer.trap_changes;
      ++output.stats.trap_changes;
      final_gates.push_back(accepted.front());
    }

    // --- line 23: execute -----------------------------------------------------
    if (options.record_positions) {
      layer.positions.reserve(static_cast<std::size_t>(machine.n_qubits()));
      for (std::int32_t q = 0; q < machine.n_qubits(); ++q) {
        layer.positions.push_back(machine.position(q));
      }
    }
    double max_gate_time = 0.0;
    for (const std::size_t gi : final_gates) {
      const circuit::Gate& g = circuit.gate(gi);
      max_gate_time = std::max(max_gate_time, gate_time_us(g, config));
      switch (g.type) {
        case circuit::GateType::kU3: ++output.stats.u3_gates; break;
        case circuit::GateType::kCZ: ++output.stats.cz_gates; break;
        default: break;
      }
      dag.mark_executed(gi);
    }

    // --- line 24: reset moved atoms -------------------------------------------
    if (options.return_home) {
      layer.return_distance_um = machine.return_all_home();
    } else if (moved_this_layer) {
      // Home drifts with the atoms: future saves anchor at current state.
      machine.save_home();
      moves.clear();
    }

    layer.gates = std::move(final_gates);
    layer.duration_us =
        max_gate_time +
        (layer.move_distance_um + layer.return_distance_um) /
            config.aod_speed_um_per_us +
        static_cast<double>(layer.trap_changes) * config.trap_switch_time_us;
    output.runtime_us += layer.duration_us;
    output.stats.layers += 1;
    output.layers.push_back(std::move(layer));
  }

  // Every executed out-of-range CZ was resolved by exactly one AOD move or
  // one trap change.
  output.stats.out_of_range_cz =
      output.stats.aod_moves + output.stats.trap_changes;
  output.move_evaluations = moves.evaluations();
  output.move_replays = moves.replays();
  return output;
}

}  // namespace parallax::compiler
