#include "parallax/aod_selection.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>

#include "circuit/dag.hpp"

namespace parallax::compiler {

AodSelectionResult select_aod_qubits(const circuit::Circuit& circuit,
                                     hardware::Machine& machine,
                                     const AodSelectionOptions& options) {
  const auto nq = static_cast<std::size_t>(circuit.n_qubits());
  AodSelectionResult result;
  result.in_aod.assign(nq, 0);
  result.weights.assign(nq, 0.0);

  // --- criterion 1: out-of-range interaction counts -------------------------
  std::vector<double> out_of_range(nq, 0.0);
  std::map<std::pair<std::int32_t, std::int32_t>, std::int64_t> oor_pairs;
  for (const circuit::Gate& g : circuit.gates()) {
    if (!g.is_two_qubit()) continue;
    if (machine.within_interaction(g.q[0], g.q[1])) continue;
    out_of_range[static_cast<std::size_t>(g.q[0])] += 1.0;
    out_of_range[static_cast<std::size_t>(g.q[1])] += 1.0;
    ++oor_pairs[{std::min(g.q[0], g.q[1]), std::max(g.q[0], g.q[1])}];
  }
  result.out_of_range_pairs = oor_pairs.size();

  // --- criterion 2: blockade-serialization caused in ASAP layers ------------
  // Blockade interference at the initial placement.
  std::vector<double> interference(nq, 0.0);
  std::vector<std::size_t> cz_gates;
  std::vector<hardware::Endpoints> cz_ends;  // parallel to cz_gates
  for (const auto& layer : circuit::asap_layers(circuit)) {
    cz_gates.clear();
    cz_ends.clear();
    for (std::size_t gi : layer) {
      const circuit::Gate& g = circuit.gate(gi);
      if (g.type == circuit::GateType::kCZ) {
        cz_gates.push_back(gi);
        cz_ends.push_back({machine.position(g.q[0]), machine.position(g.q[1])});
      }
    }
    for (std::size_t i = 0; i < cz_gates.size(); ++i) {
      for (std::size_t j = i + 1; j < cz_gates.size(); ++j) {
        const auto& g1 = circuit.gate(cz_gates[i]);
        const auto& g2 = circuit.gate(cz_gates[j]);
        if (hardware::blockade_conflict(cz_ends[i], cz_ends[j],
                                        machine.blockade_radius())) {
          for (int k = 0; k < 2; ++k) {
            interference[static_cast<std::size_t>(g1.q[k])] += 1.0;
            interference[static_cast<std::size_t>(g2.q[k])] += 1.0;
          }
        }
      }
    }
  }

  // --- combined weight: 0.99 / 0.01 split (paper Sec. II-C) -----------------
  const double max_oor =
      std::max(1.0, *std::max_element(out_of_range.begin(), out_of_range.end()));
  const double max_intf = std::max(
      1.0, *std::max_element(interference.begin(), interference.end()));
  for (std::size_t q = 0; q < nq; ++q) {
    result.weights[q] =
        options.out_of_range_weight * (out_of_range[q] / max_oor) +
        options.interference_weight * (interference[q] / max_intf);
  }

  // --- greedy selection with pair coverage -----------------------------------
  // Sort candidates by weight; take an atom only while it still covers an
  // out-of-range pair without a mobile endpoint (one AOD endpoint per pair
  // suffices — the paper moves exactly one atom of an out-of-range gate).
  std::vector<std::int32_t> order(nq);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::int32_t a, std::int32_t b) {
                     return result.weights[static_cast<std::size_t>(a)] >
                            result.weights[static_cast<std::size_t>(b)];
                   });

  const auto capacity = static_cast<std::size_t>(
      std::min(machine.aod().n_rows(), machine.aod().n_cols()));
  std::map<std::pair<std::int32_t, std::int32_t>, bool> covered;
  for (const auto& [pair, count] : oor_pairs) covered[pair] = false;

  std::vector<std::int32_t> selected;
  for (std::int32_t q : order) {
    if (selected.size() >= capacity) break;
    if (result.weights[static_cast<std::size_t>(q)] <= 0.0) break;
    bool helps = false;
    for (auto& [pair, is_covered] : covered) {
      if (!is_covered && (pair.first == q || pair.second == q)) {
        helps = true;
        break;
      }
    }
    if (!helps) continue;
    selected.push_back(q);
    for (auto& [pair, is_covered] : covered) {
      if (pair.first == q || pair.second == q) is_covered = true;
    }
  }
  for (const auto& [pair, is_covered] : covered) {
    result.uncovered_pairs += is_covered ? 0 : 1;
  }

  if (selected.empty()) return result;

  // --- lift the selected atoms into AOD lines --------------------------------
  // Row indices must increase with y and column indices with x (the
  // non-crossing invariant); assign compactly in sorted order.
  const double gap = machine.aod().min_line_gap();

  std::vector<std::int32_t> by_y = selected;
  std::stable_sort(by_y.begin(), by_y.end(),
                   [&](std::int32_t a, std::int32_t b) {
                     return machine.position(a).y < machine.position(b).y;
                   });
  std::vector<std::int32_t> by_x = selected;
  std::stable_sort(by_x.begin(), by_x.end(),
                   [&](std::int32_t a, std::int32_t b) {
                     return machine.position(a).x < machine.position(b).x;
                   });

  // The paper's recursive de-collision: shared coordinates get nudged in a
  // fixed direction (up / right), cascading onto subsequent lines.
  std::vector<double> row_coords(by_y.size());
  for (std::size_t i = 0; i < by_y.size(); ++i) {
    row_coords[i] = machine.position(by_y[i]).y;
    if (i > 0 && row_coords[i] < row_coords[i - 1] + gap) {
      row_coords[i] = row_coords[i - 1] + gap;
    }
  }
  std::vector<double> col_coords(by_x.size());
  for (std::size_t i = 0; i < by_x.size(); ++i) {
    col_coords[i] = machine.position(by_x[i]).x;
    if (i > 0 && col_coords[i] < col_coords[i - 1] + gap) {
      col_coords[i] = col_coords[i - 1] + gap;
    }
  }

  // Final (x, y) per selected atom.
  std::map<std::int32_t, geom::Point> target;
  for (std::size_t i = 0; i < by_y.size(); ++i) {
    target[by_y[i]].y = row_coords[i];
  }
  for (std::size_t i = 0; i < by_x.size(); ++i) {
    target[by_x[i]].x = col_coords[i];
  }

  // Lift: row index = rank in y order, column index = rank in x order.
  std::map<std::int32_t, std::int32_t> row_of, col_of;
  for (std::size_t i = 0; i < by_y.size(); ++i) {
    row_of[by_y[i]] = static_cast<std::int32_t>(i);
  }
  for (std::size_t i = 0; i < by_x.size(); ++i) {
    col_of[by_x[i]] = static_cast<std::int32_t>(i);
  }
  for (std::int32_t q : selected) {
    machine.assign_to_aod(q, row_of[q], col_of[q]);
    machine.move_aod_atom(q, target[q]);
    result.in_aod[static_cast<std::size_t>(q)] = 1;
  }

  // Separation cleanup: nudges may have created sub-minimum gaps against
  // static atoms; push the AOD atom up (cascading row coordinates) until
  // clear. Bounded by the same recursion budget the paper uses for moves.
  for (std::size_t i = 0; i < by_y.size(); ++i) {
    const std::int32_t q = by_y[i];
    geom::Point p = machine.position(q);
    int budget = 80;
    while (!machine.placement_clear(q, p) && budget-- > 0) {
      p.y += machine.config().min_separation_um / 2.0;
    }
    if (p.y != machine.position(q).y) {
      // Cascade so later rows stay above.
      double floor = p.y;
      machine.move_aod_atom(q, p);
      for (std::size_t j = i + 1; j < by_y.size(); ++j) {
        geom::Point pj = machine.position(by_y[j]);
        if (pj.y < floor + gap) {
          pj.y = floor + gap;
          machine.move_aod_atom(by_y[j], pj);
        }
        floor = machine.position(by_y[j]).y;
      }
    }
  }

  // Park every unassigned line outside the active field, preserving order.
  auto& aod = machine.aod();
  const double park_base =
      machine.grid().extent() + 10.0 * machine.config().min_separation_um;
  {
    int parked = 0;
    for (std::int32_t r = 0; r < aod.n_rows(); ++r) {
      if (aod.row_qubit(r) < 0) {
        aod.set_row_coord(r, park_base + gap * static_cast<double>(parked++));
      }
    }
    parked = 0;
    for (std::int32_t c = 0; c < aod.n_cols(); ++c) {
      if (aod.col_qubit(c) < 0) {
        aod.set_col_coord(c, park_base + gap * static_cast<double>(parked++));
      }
    }
  }
  return result;
}

}  // namespace compiler
