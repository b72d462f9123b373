#include "circuit/interaction_graph.hpp"

#include <algorithm>
#include <map>
#include <numeric>

namespace parallax::circuit {

InteractionGraph::InteractionGraph(const Circuit& circuit) {
  InteractionGraphBuilder builder;
  for (const Gate& g : circuit.gates()) builder.add_gate(g);
  *this = builder.build(circuit.n_qubits());
}

void InteractionGraphBuilder::add_gate(const Gate& gate) {
  if (!gate.is_two_qubit()) return;
  add_pair(gate.q[0], gate.q[1]);
}

void InteractionGraphBuilder::add_pair(std::int32_t a, std::int32_t b) {
  add_weighted(a, b, 1);
}

void InteractionGraphBuilder::add_weighted(std::int32_t a, std::int32_t b,
                                           std::int64_t weight) {
  weights_[{std::min(a, b), std::max(a, b)}] += weight;
}

InteractionGraph InteractionGraphBuilder::build(std::int32_t n_qubits) {
  InteractionGraph graph;
  graph.n_qubits_ = n_qubits;
  graph.adjacency_.resize(static_cast<std::size_t>(n_qubits));
  graph.weighted_degree_.assign(static_cast<std::size_t>(n_qubits), 0);
  graph.edges_.reserve(weights_.size());
  for (const auto& [key, w] : weights_) {
    const auto [a, b] = key;
    graph.edges_.push_back({a, b, w});
    graph.adjacency_[static_cast<std::size_t>(a)].push_back(b);
    if (b != a) graph.adjacency_[static_cast<std::size_t>(b)].push_back(a);
    // A degenerate pair (a == b) still counts twice toward the weighted
    // degree, matching per-gate accumulation over the full gate list.
    graph.weighted_degree_[static_cast<std::size_t>(a)] += w;
    graph.weighted_degree_[static_cast<std::size_t>(b)] += w;
  }
  weights_.clear();
  return graph;
}

std::int64_t InteractionGraph::degree(std::int32_t qubit) const {
  return weighted_degree_[static_cast<std::size_t>(qubit)];
}

std::int32_t InteractionGraph::partner_count(std::int32_t qubit) const {
  return static_cast<std::int32_t>(
      adjacency_[static_cast<std::size_t>(qubit)].size());
}

bool InteractionGraph::connected_over_active() const {
  std::vector<std::int32_t> active;
  for (std::int32_t q = 0; q < n_qubits_; ++q) {
    if (!adjacency_[static_cast<std::size_t>(q)].empty()) active.push_back(q);
  }
  if (active.size() <= 1) return true;
  std::vector<char> seen(static_cast<std::size_t>(n_qubits_), 0);
  std::vector<std::int32_t> stack{active.front()};
  seen[static_cast<std::size_t>(active.front())] = 1;
  std::size_t visited = 0;
  while (!stack.empty()) {
    const std::int32_t q = stack.back();
    stack.pop_back();
    ++visited;
    for (std::int32_t nb : adjacency_[static_cast<std::size_t>(q)]) {
      if (!seen[static_cast<std::size_t>(nb)]) {
        seen[static_cast<std::size_t>(nb)] = 1;
        stack.push_back(nb);
      }
    }
  }
  return visited == active.size();
}

double InteractionGraph::mean_connectivity() const {
  std::int64_t total = 0;
  std::int32_t active = 0;
  for (std::int32_t q = 0; q < n_qubits_; ++q) {
    const auto partners = partner_count(q);
    if (partners > 0) {
      total += partners;
      ++active;
    }
  }
  return active == 0 ? 0.0 : static_cast<double>(total) / active;
}

}  // namespace parallax::circuit
