// Weighted qubit interaction graph: nodes are qubits, edge weight (i, j) is
// the number of two-qubit gates between i and j. This is the input to
// Graphine's annealed placement, the AOD selection heuristic, and the
// windowed-placement partitioner. InteractionGraphBuilder accumulates the
// same graph one gate at a time, so the streaming QASM front end can build
// it in the parse pass without materializing a gate list.
#pragma once

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"

namespace parallax::circuit {

struct WeightedEdge {
  std::int32_t a = 0;
  std::int32_t b = 0;  // invariant: a < b
  std::int64_t weight = 0;
};

class InteractionGraph {
 public:
  InteractionGraph() = default;
  explicit InteractionGraph(const Circuit& circuit);

  [[nodiscard]] std::int32_t n_qubits() const noexcept { return n_qubits_; }
  [[nodiscard]] const std::vector<WeightedEdge>& edges() const noexcept {
    return edges_;
  }

  /// Number of 2q gates touching `qubit` (weighted degree).
  [[nodiscard]] std::int64_t degree(std::int32_t qubit) const;

  /// Distinct interaction partners of `qubit`.
  [[nodiscard]] std::int32_t partner_count(std::int32_t qubit) const;

  /// True if the graph (ignoring weights) is connected over all qubits that
  /// appear in at least one 2q gate; isolated qubits are trivially fine.
  [[nodiscard]] bool connected_over_active() const;

  /// Average distinct-partner count over active qubits; the paper's notion
  /// of circuit "connectivity" (TFIM low, QV high).
  [[nodiscard]] double mean_connectivity() const;

 private:
  friend class InteractionGraphBuilder;

  std::int32_t n_qubits_ = 0;
  std::vector<WeightedEdge> edges_;
  std::vector<std::vector<std::int32_t>> adjacency_;  // partner lists
  std::vector<std::int64_t> weighted_degree_;
};

/// Incremental interaction-graph accumulation in O(distinct qubit pairs)
/// memory. Feed gates (or pairs) in any order, then build(); the result is
/// identical to InteractionGraph(circuit) over the same gates. A builder can
/// be reused after build() — it is left empty.
class InteractionGraphBuilder {
 public:
  /// Accumulates `gate` if it is two-qubit; ignores everything else.
  void add_gate(const Gate& gate);
  /// Accumulates one interaction between qubits `a` and `b` directly.
  void add_pair(std::int32_t a, std::int32_t b);
  /// Accumulates `weight` interactions at once (e.g. copying an edge of an
  /// existing graph into a subgraph).
  void add_weighted(std::int32_t a, std::int32_t b, std::int64_t weight);

  /// Builds the graph over qubits [0, n_qubits); every accumulated pair must
  /// fall in that range. The builder resets to empty.
  [[nodiscard]] InteractionGraph build(std::int32_t n_qubits);

 private:
  std::map<std::pair<std::int32_t, std::int32_t>, std::int64_t> weights_;
};

}  // namespace parallax::circuit
