#include "baselines/static_schedule.hpp"

#include <algorithm>
#include <cassert>

#include "circuit/dag.hpp"
#include "hardware/machine.hpp"
#include "util/rng.hpp"

namespace parallax::baselines {

namespace {

double gate_time_us(const circuit::Gate& g,
                    const hardware::HardwareConfig& config) {
  switch (g.type) {
    case circuit::GateType::kU3: return config.u3_time_us;
    case circuit::GateType::kCZ: return config.cz_time_us;
    case circuit::GateType::kSwap: return config.swap_time_us;
    default: return 0.0;
  }
}

}  // namespace

StaticScheduleOutput schedule_static(const circuit::Circuit& circuit,
                                     const std::vector<geom::Point>& positions,
                                     double blockade_radius,
                                     const hardware::HardwareConfig& config,
                                     std::uint64_t shuffle_seed) {
  StaticScheduleOutput output;
  circuit::DependencyTracker dag(circuit);
  util::Rng rng(shuffle_seed);

  std::vector<std::size_t> candidates;
  std::vector<std::size_t> final_gates;          // the layer's gates so far
  std::vector<hardware::Endpoints> final_pairs;  // the layer's 2q gates so far
  while (!dag.done()) {
    // One ready gate per qubit.
    dag.ready_gates(candidates);
    assert(!candidates.empty());
    rng.shuffle(candidates);

    // Blockade serialization: multi-qubit gates (CZ and SWAP — a SWAP is
    // three back-to-back CZs on the same pair) conflict within the radius.
    compiler::Layer layer;
    final_gates.clear();
    final_pairs.clear();
    for (const std::size_t gi : candidates) {
      const circuit::Gate& g = circuit.gate(gi);
      if (g.is_two_qubit()) {
        const hardware::Endpoints ends{
            positions[static_cast<std::size_t>(g.q[0])],
            positions[static_cast<std::size_t>(g.q[1])]};
        const bool conflicts = std::any_of(
            final_pairs.begin(), final_pairs.end(),
            [&](const hardware::Endpoints& prior) {
              return hardware::blockade_conflict(ends, prior, blockade_radius);
            });
        if (conflicts) continue;
        final_pairs.push_back(ends);
      }
      final_gates.push_back(gi);
    }
    assert(!final_gates.empty());

    double max_gate_time = 0.0;
    for (const std::size_t gi : final_gates) {
      max_gate_time =
          std::max(max_gate_time, gate_time_us(circuit.gate(gi), config));
      dag.mark_executed(gi);
    }
    layer.gates_begin = output.layer_gates.size();
    output.layer_gates.insert(output.layer_gates.end(), final_gates.begin(),
                              final_gates.end());
    layer.gates_end = output.layer_gates.size();
    layer.duration_us = max_gate_time;
    output.runtime_us += layer.duration_us;
    output.layers.push_back(std::move(layer));
  }
  return output;
}

}  // namespace parallax::baselines
