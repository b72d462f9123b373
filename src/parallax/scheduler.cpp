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

  // A gate the layer accepted and its trap change: 0 none (in range or
  // moved), 1 after a failed move, 2 an SLM-SLM excursion.
  struct Accepted {
    std::size_t gate;
    char trap_change;
  };
  std::vector<std::size_t> candidates;
  std::vector<Accepted> accepted;
  std::vector<std::size_t> final_gates;  // the layer's gates so far
  std::vector<hardware::Endpoints> final_czs;  // the layer's CZs so far
  while (!dag.done()) {
    Layer layer;
    bool moved_this_layer = false;

    // --- lines 8-11: one ready gate per qubit -------------------------------
    dag.ready_gates(candidates);
    assert(!candidates.empty());  // a non-done DAG always has a ready head

    // --- lines 12-19: movement resolution for out-of-range CZs --------------
    // Trap changes are *recorded* here but only charged (time + error) for
    // gates that survive the blockade filter and execute — an ejected gate
    // retries in a later layer and must not accumulate phantom trap
    // changes. The single physical AOD move is different: it mutates
    // machine state, so the moved gate is pinned into the layer.
    accepted.clear();
    std::size_t moved_gate = static_cast<std::size_t>(-1);
    for (const std::size_t gi : candidates) {
      const circuit::Gate& g = circuit.gate(gi);
      if (g.type != circuit::GateType::kCZ ||
          machine.within_interaction(g.q[0], g.q[1])) {
        accepted.push_back({gi, 0});
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
          accepted.push_back({gi, 0});
        } else {
          // Failed moves are resolved with a trap change (paper Sec. III).
          accepted.push_back({gi, 1});
        }
        continue;
      }
      if (!q0_mobile && !q1_mobile) {
        // Both static and out of range: trap-and-move excursion (the ~1.3%
        // case). The atom is temporarily AOD-trapped, moved into range,
        // the gate runs, and it returns to its SLM trap within the layer.
        accepted.push_back({gi, 2});  // 2 marks the SLM-SLM statistic
        continue;
      }
      // Mobile endpoint exists but this layer already moved: defer the gate
      // to a later layer (paper lines 16-17).
    }

    // --- line 20: shuffle to avoid starvation --------------------------------
    rng.shuffle(accepted);
    // Pin the physically-moved gate to the front so the blockade filter can
    // never waste the move.
    for (Accepted& entry : accepted) {
      if (entry.gate == moved_gate) {
        std::swap(accepted.front(), entry);
        break;
      }
    }

    // --- lines 21-22: blockade-interference serialization --------------------
    final_gates.clear();
    final_czs.clear();
    for (const auto [gi, trap_change] : accepted) {
      const circuit::Gate& g = circuit.gate(gi);
      if (g.type == circuit::GateType::kCZ) {
        // Re-verify range: the layer's AOD move may have recursively
        // displaced an endpoint of a gate that was in range when it was
        // accepted. Such gates are ejected and retry next layer.
        // (Trap-change gates execute via an excursion and are exempt.)
        if (trap_change == 0 && !machine.within_interaction(g.q[0], g.q[1])) {
          continue;
        }
        const hardware::Endpoints ends{machine.position(g.q[0]),
                                       machine.position(g.q[1])};
        const bool conflicts = std::any_of(
            final_czs.begin(), final_czs.end(),
            [&](const hardware::Endpoints& prior) {
              return hardware::blockade_conflict(ends, prior,
                                                 machine.blockade_radius());
            });
        if (conflicts) continue;  // ejected back to the pool
        final_czs.push_back(ends);
      }
      if (trap_change != 0) {
        ++layer.trap_changes;
        ++output.stats.trap_changes;
        if (trap_change == 2) ++output.stats.slm_slm_cz;
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
      final_gates.push_back(accepted.front().gate);
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
    // Only a successful move leaves home: a failed search is rolled back bit
    // for bit and a trap-change excursion moves no atom, so after any other
    // layer the machine is already home and a return would travel +0.0.
    if (moved_this_layer) {
      if (options.return_home) {
        layer.return_distance_um = machine.return_all_home();
      } else {
        // Home drifts with the atoms: future saves anchor at current state.
        machine.save_home();
        moves.clear();
      }
    }

    layer.gates_begin = output.layer_gates.size();
    output.layer_gates.insert(output.layer_gates.end(), final_gates.begin(),
                              final_gates.end());
    layer.gates_end = output.layer_gates.size();
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
