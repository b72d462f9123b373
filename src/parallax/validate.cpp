#include "parallax/validate.hpp"

#include <map>
#include <set>
#include <span>
#include <sstream>

namespace parallax::compiler {

namespace {

std::string gate_desc(const circuit::Circuit& circuit, std::size_t index) {
  std::ostringstream out;
  out << "gate#" << index << " (" << circuit.gate(index).to_string() << ")";
  return out.str();
}

/// The gates of `layer`, or none when its range does not fit (L2 reports
/// such a layer).
std::span<const std::size_t> checked_gates(const CompileResult& result,
                                           const Layer& layer) {
  if (!result.gates_fit(layer)) return {};
  return result.gates(layer);
}

}  // namespace

ValidationReport validate_schedule(const CompileResult& result,
                                   const hardware::HardwareConfig& config,
                                   bool expect_zero_swaps) {
  ValidationReport report;
  const circuit::Circuit& circuit = result.circuit;

  // L1: zero SWAPs for Parallax.
  if (expect_zero_swaps && circuit.swap_count() != 0) {
    report.fail("L1: circuit contains " +
                std::to_string(circuit.swap_count()) + " SWAP gates");
  }

  // L2: every layer's range lies in layer_gates, and every non-barrier gate
  // is scheduled exactly once.
  std::vector<int> times_scheduled(circuit.size(), 0);
  for (std::size_t li = 0; li < result.layers.size(); ++li) {
    const Layer& layer = result.layers[li];
    if (!result.gates_fit(layer)) {
      report.fail("L2: layer " + std::to_string(li) + " has gate range [" +
                  std::to_string(layer.gates_begin) + ", " +
                  std::to_string(layer.gates_end) + ") outside the " +
                  std::to_string(result.layer_gates.size()) +
                  " layer gates");
      continue;
    }
    for (const std::size_t gi : result.gates(layer)) {
      if (gi >= circuit.size()) {
        report.fail("L2: layer references out-of-range gate index " +
                    std::to_string(gi));
        continue;
      }
      ++times_scheduled[gi];
    }
  }
  for (std::size_t gi = 0; gi < circuit.size(); ++gi) {
    const int expected =
        circuit.gate(gi).type == circuit::GateType::kBarrier ? 0 : 1;
    if (times_scheduled[gi] != expected) {
      report.fail("L2: " + gate_desc(circuit, gi) + " scheduled " +
                  std::to_string(times_scheduled[gi]) + " times");
    }
  }

  // L3: no qubit reuse within a layer. This check and the ones after it
  // read each scheduled gate, so they skip the ranges and indices L2
  // reported.
  for (std::size_t li = 0; li < result.layers.size(); ++li) {
    std::set<std::int32_t> touched;
    for (const std::size_t gi : checked_gates(result, result.layers[li])) {
      if (gi >= circuit.size()) continue;
      const auto& g = circuit.gate(gi);
      for (int k = 0; k < g.arity(); ++k) {
        if (!touched.insert(g.q[k]).second) {
          report.fail("L3: layer " + std::to_string(li) + " uses qubit " +
                      std::to_string(g.q[k]) + " twice");
        }
      }
    }
  }

  // L4: per-qubit order preservation.
  std::map<std::int32_t, std::vector<std::size_t>> expected_order;
  for (std::size_t gi = 0; gi < circuit.size(); ++gi) {
    const auto& g = circuit.gate(gi);
    if (g.type == circuit::GateType::kBarrier) continue;
    for (int k = 0; k < g.arity(); ++k) expected_order[g.q[k]].push_back(gi);
  }
  std::map<std::int32_t, std::vector<std::size_t>> actual_order;
  for (const Layer& layer : result.layers) {
    for (const std::size_t gi : checked_gates(result, layer)) {
      if (gi >= circuit.size()) continue;
      const auto& g = circuit.gate(gi);
      for (int k = 0; k < g.arity(); ++k) actual_order[g.q[k]].push_back(gi);
    }
  }
  if (expected_order != actual_order) {
    report.fail("L4: per-qubit execution order deviates from program order");
  }

  // Physical checks require the recorded snapshots, one position per
  // qubit; a snapshot, or an in_aod vector, of another size is reported
  // instead of read.
  const double radius = result.topology.interaction_radius_um;
  const double blockade = result.topology.blockade_radius_um;
  const auto n_qubits = static_cast<std::size_t>(circuit.n_qubits());
  const bool flags_fit = result.in_aod.size() == n_qubits;
  bool flags_reported = false;
  for (std::size_t li = 0; li < result.layers.size(); ++li) {
    const Layer& layer = result.layers[li];
    if (layer.positions.empty()) continue;
    const auto& pos = layer.positions;
    if (pos.size() != n_qubits) {
      report.fail("P1: layer " + std::to_string(li) + " records " +
                  std::to_string(pos.size()) + " positions for " +
                  std::to_string(n_qubits) + " qubits");
      continue;
    }
    if (!flags_fit && !flags_reported) {
      report.fail("P1: in_aod holds " + std::to_string(result.in_aod.size()) +
                  " flags for " + std::to_string(n_qubits) + " qubits");
      flags_reported = true;
    }

    // P1: CZ atoms in range (it reads the AOD flags).
    const std::span<const std::size_t> gates = checked_gates(result, layer);
    for (const std::size_t gi : gates) {
      if (gi >= circuit.size() || !flags_fit) continue;
      const auto& g = circuit.gate(gi);
      if (g.type != circuit::GateType::kCZ) continue;
      // Trap-change gates execute during an off-snapshot excursion; the
      // snapshot shows the pre-excursion position, so skip gates whose
      // atoms are both static and far (they are exactly the trap-change
      // set, already accounted in stats).
      const double d =
          geom::distance(pos[static_cast<std::size_t>(g.q[0])],
                         pos[static_cast<std::size_t>(g.q[1])]);
      const bool q0_mobile = result.in_aod[static_cast<std::size_t>(g.q[0])];
      const bool q1_mobile = result.in_aod[static_cast<std::size_t>(g.q[1])];
      if (d > radius * (1.0 + 1e-9) && (q0_mobile || q1_mobile) &&
          layer.trap_changes == 0) {
        report.fail("P1: layer " + std::to_string(li) + " " +
                    gate_desc(circuit, gi) + " executes at distance " +
                    std::to_string(d) + " > radius " + std::to_string(radius));
      }
    }

    // P2: blockade exclusivity between distinct CZs (skip trap-change
    // layers, whose excursions are not in the snapshot).
    if (layer.trap_changes == 0) {
      std::vector<std::size_t> cz_gates;
      for (const std::size_t gi : gates) {
        if (gi < circuit.size() &&
            circuit.gate(gi).type == circuit::GateType::kCZ) {
          cz_gates.push_back(gi);
        }
      }
      for (std::size_t i = 0; i < cz_gates.size(); ++i) {
        for (std::size_t j = i + 1; j < cz_gates.size(); ++j) {
          const auto& g1 = circuit.gate(cz_gates[i]);
          const auto& g2 = circuit.gate(cz_gates[j]);
          for (int a = 0; a < 2; ++a) {
            for (int b = 0; b < 2; ++b) {
              const double d = geom::distance(
                  pos[static_cast<std::size_t>(g1.q[a])],
                  pos[static_cast<std::size_t>(g2.q[b])]);
              if (d < blockade * (1.0 - 1e-9)) {
                report.fail("P2: layer " + std::to_string(li) +
                            " blockade violation between " +
                            gate_desc(circuit, cz_gates[i]) + " and " +
                            gate_desc(circuit, cz_gates[j]));
              }
            }
          }
        }
      }
    }

    // P3: minimum separation at the snapshot.
    for (std::size_t a = 0; a < pos.size(); ++a) {
      for (std::size_t b = a + 1; b < pos.size(); ++b) {
        if (geom::distance(pos[a], pos[b]) <
            config.min_separation_um * (1.0 - 1e-9)) {
          report.fail("P3: layer " + std::to_string(li) + " atoms " +
                      std::to_string(a) + " and " + std::to_string(b) +
                      " closer than the minimum separation");
        }
      }
    }
  }

  return report;
}

}  // namespace parallax::compiler
