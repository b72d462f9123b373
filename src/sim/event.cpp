#include "sim/event.hpp"

#include <algorithm>
#include <span>

namespace parallax::sim {

double gate_pulse_us(const circuit::Gate& gate,
                     const hardware::HardwareConfig& config) {
  switch (gate.type) {
    case circuit::GateType::kU3: return config.u3_time_us;
    case circuit::GateType::kCZ: return config.cz_time_us;
    case circuit::GateType::kSwap: return config.swap_time_us;
    case circuit::GateType::kMeasure: return 0.0;  // readout happens once,
                                                   // post-circuit
    case circuit::GateType::kBarrier: return 0.0;
  }
  return 0.0;
}

void require_positions(const compiler::CompileResult& result) {
  const std::size_t n = static_cast<std::size_t>(result.circuit.n_qubits());
  for (std::size_t li = 0; li < result.layers.size(); ++li) {
    if (result.layers[li].positions.size() != n) {
      throw SimError(
          "schedule of '" + result.circuit.name() + "' (technique '" +
          result.technique + "') records " +
          std::to_string(result.layers[li].positions.size()) +
          " atom positions for layer " + std::to_string(li) + ", expected " +
          std::to_string(n) +
          "; compile with FidelityModel::kSimulated or "
          "SchedulerOptions::record_positions to make it simulatable");
    }
  }
}

std::vector<std::vector<geom::Point>> layer_start_configs(
    const compiler::CompileResult& result) {
  require_positions(result);
  const std::size_t n = static_cast<std::size_t>(result.circuit.n_qubits());
  if (result.topology.sites.size() != n) {
    throw SimError("schedule of '" + result.circuit.name() +
                   "' has no physical topology (" +
                   std::to_string(result.topology.sites.size()) +
                   " sites for " + std::to_string(n) + " qubits)");
  }
  std::vector<geom::Point> home;
  home.reserve(n);
  for (const auto& site : result.topology.sites) {
    home.push_back(result.topology.grid.position(site));
  }

  std::vector<std::vector<geom::Point>> configs;
  configs.reserve(result.layers.size());
  // A layer starts from home whenever the previous layer returned its moved
  // atoms (return_distance > 0), or trivially when nothing has drifted yet;
  // in the Fig. 12 no-return mode atoms simply stay where the previous
  // layer's snapshot left them.
  const std::vector<geom::Point>* current = &home;
  for (const auto& layer : result.layers) {
    configs.push_back(*current);
    current = layer.return_distance_um > 0.0 ? &home : &layer.positions;
  }
  return configs;
}

Timeline build_timeline(const compiler::CompileResult& result,
                        const hardware::HardwareConfig& config) {
  if (config.aod_speed_um_per_us <= 0.0 || config.trap_switch_time_us < 0.0) {
    throw SimError("hardware config '" + config.name +
                   "' has non-physical AOD movement parameters");
  }
  Timeline timeline;
  timeline.layer_wall_us.reserve(result.layers.size());
  double t = 0.0;
  for (std::size_t li = 0; li < result.layers.size(); ++li) {
    const compiler::Layer& layer = result.layers[li];
    if (layer.move_distance_um < 0.0 || layer.return_distance_um < 0.0 ||
        layer.aod_moves < 0 || layer.trap_changes < 0) {
      throw SimError("layer " + std::to_string(li) +
                     " has negative movement/trap accounting");
    }
    if (!result.gates_fit(layer)) {
      throw SimError("layer " + std::to_string(li) + " has gate range [" +
                     std::to_string(layer.gates_begin) + ", " +
                     std::to_string(layer.gates_end) + ") outside the " +
                     std::to_string(result.layer_gates.size()) +
                     " layer gates");
    }
    const std::span<const std::size_t> gates = result.gates(layer);
    double max_gate_time = 0.0;
    for (const std::size_t gi : gates) {
      if (gi >= result.circuit.size()) {
        throw SimError("layer " + std::to_string(li) +
                       " references gate " + std::to_string(gi) +
                       " outside the circuit (" +
                       std::to_string(result.circuit.size()) + " gates)");
      }
      max_gate_time = std::max(
          max_gate_time, gate_pulse_us(result.circuit.gate(gi), config));
    }
    // The scheduler's exact duration expression, in its operand order.
    const double wall =
        max_gate_time +
        (layer.move_distance_um + layer.return_distance_um) /
            config.aod_speed_um_per_us +
        static_cast<double>(layer.trap_changes) * config.trap_switch_time_us;

    double cursor = t;
    if (layer.aod_moves > 0 || layer.move_distance_um > 0.0) {
      const double leg = layer.move_distance_um / config.aod_speed_um_per_us;
      timeline.events.push_back({EventKind::kMoveLeg, li, cursor, cursor + leg,
                                 kNoGate, std::max(layer.aod_moves, 1),
                                 layer.move_distance_um});
      cursor += leg;
    }
    if (layer.trap_changes > 0) {
      const double leg =
          static_cast<double>(layer.trap_changes) * config.trap_switch_time_us;
      timeline.events.push_back({EventKind::kTrapChange, li, cursor,
                                 cursor + leg, kNoGate, layer.trap_changes,
                                 0.0});
      cursor += leg;
    }
    for (const std::size_t gi : gates) {
      timeline.events.push_back(
          {EventKind::kGatePulse, li, cursor,
           cursor + gate_pulse_us(result.circuit.gate(gi), config), gi, 1,
           0.0});
    }
    cursor += max_gate_time;
    if (layer.return_distance_um > 0.0) {
      const double leg = layer.return_distance_um / config.aod_speed_um_per_us;
      // Return legs charge time (they are inside duration_us) but no
      // movement-loss draws: the model's movement_loss^aod_moves counts
      // inbound move-into-range operations only.
      timeline.events.push_back({EventKind::kReturnLeg, li, cursor,
                                 cursor + leg, kNoGate, 0,
                                 layer.return_distance_um});
    }
    timeline.layer_wall_us.push_back(wall);
    timeline.total_us += wall;
    t += wall;
  }
  return timeline;
}

}  // namespace parallax::sim
