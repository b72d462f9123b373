#include "parallax/report.hpp"

#include "noise/model.hpp"
#include "util/json.hpp"

namespace parallax::compiler {

std::string report_json(const CompileResult& result,
                        const hardware::HardwareConfig& config,
                        const ReportOptions& options) {
  using util::JsonValue;
  JsonValue root = JsonValue::object();
  root["technique"] = result.technique;
  root["circuit"] = result.circuit.name();
  root["machine"] = config.name;
  root["n_qubits"] = static_cast<std::int64_t>(result.circuit.n_qubits());

  JsonValue gates = JsonValue::object();
  gates["u3"] = result.stats.u3_gates;
  gates["cz"] = result.stats.cz_gates;
  gates["swap"] = result.stats.swap_gates;
  gates["effective_cz"] = result.stats.effective_cz();
  root["gates"] = std::move(gates);

  JsonValue schedule = JsonValue::object();
  schedule["layers"] = result.stats.layers;
  schedule["runtime_us"] = result.runtime_us;
  schedule["aod_moves"] = result.stats.aod_moves;
  schedule["trap_changes"] = result.stats.trap_changes;
  schedule["out_of_range_cz"] = result.stats.out_of_range_cz;
  schedule["slm_slm_cz"] = result.stats.slm_slm_cz;
  schedule["max_move_distance_um"] = result.stats.max_move_distance_um;
  schedule["total_move_distance_um"] = result.stats.total_move_distance_um;
  root["schedule"] = std::move(schedule);

  JsonValue topology = JsonValue::object();
  topology["grid_side"] = static_cast<std::int64_t>(result.topology.grid.side());
  topology["pitch_um"] = result.topology.grid.pitch();
  topology["interaction_radius_um"] = result.topology.interaction_radius_um;
  topology["blockade_radius_um"] = result.topology.blockade_radius_um;
  topology["aod_qubits"] = result.aod_qubit_count();
  root["topology"] = std::move(topology);

  root["success_probability"] =
      noise::success_probability(result, config);

  if (options.include_layers) {
    JsonValue layers = JsonValue::array();
    for (const Layer& layer : result.layers) {
      JsonValue item = JsonValue::object();
      JsonValue gate_list = JsonValue::array();
      for (const std::size_t gi : result.gates(layer)) gate_list.push_back(gi);
      item["gates"] = std::move(gate_list);
      item["duration_us"] = layer.duration_us;
      item["move_distance_um"] = layer.move_distance_um;
      item["return_distance_um"] = layer.return_distance_um;
      item["trap_changes"] = static_cast<std::int64_t>(layer.trap_changes);
      layers.push_back(std::move(item));
    }
    root["layers"] = std::move(layers);
  }
  return root.dump(options.indent);
}

}  // namespace parallax::compiler
