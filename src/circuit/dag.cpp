#include "circuit/dag.hpp"

#include <algorithm>
#include <bit>
#include <cassert>

namespace parallax::circuit {

namespace {

constexpr std::size_t kWordBits = 64;

/// The qubit whose bit stands for `g` in the ready set.
std::int32_t lowest_qubit(const Gate& g) {
  return g.arity() == 2 ? std::min(g.q[0], g.q[1]) : g.q[0];
}

}  // namespace

DependencyTracker::DependencyTracker(const Circuit& circuit)
    : circuit_(&circuit),
      per_qubit_(static_cast<std::size_t>(circuit.n_qubits())),
      cursor_(static_cast<std::size_t>(circuit.n_qubits()), 0),
      ready_((cursor_.size() + kWordBits - 1) / kWordBits, 0) {
  const auto& gates = circuit.gates();
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    if (g.type == GateType::kBarrier) continue;  // scheduler-level concern
    for (int k = 0; k < g.arity(); ++k) {
      per_qubit_[static_cast<std::size_t>(g.q[k])].push_back(i);
    }
    ++remaining_;
  }
  for (std::int32_t q = 0; q < circuit.n_qubits(); ++q) note_head(q);
}

std::optional<std::size_t> DependencyTracker::next_gate(
    std::int32_t qubit) const {
  const auto& queue = per_qubit_[static_cast<std::size_t>(qubit)];
  const std::size_t pos = cursor_[static_cast<std::size_t>(qubit)];
  if (pos >= queue.size()) return std::nullopt;
  return queue[pos];
}

bool DependencyTracker::is_ready(std::size_t gate_index) const {
  const Gate& g = circuit_->gate(gate_index);
  for (int k = 0; k < g.arity(); ++k) {
    if (next_gate(g.q[k]) != gate_index) return false;
  }
  return true;
}

void DependencyTracker::mark_executed(std::size_t gate_index) {
  assert(is_ready(gate_index));
  const Gate& g = circuit_->gate(gate_index);
  const auto bit = static_cast<std::size_t>(lowest_qubit(g));
  const std::uint64_t mask = std::uint64_t{1} << (bit % kWordBits);
  assert((ready_[bit / kWordBits] & mask) != 0);
  ready_[bit / kWordBits] &= ~mask;
  for (int k = 0; k < g.arity(); ++k) {
    ++cursor_[static_cast<std::size_t>(g.q[k])];
  }
  // Every cursor moves before any head is tested: a gate on the same two
  // qubits is ready only once both have advanced.
  for (int k = 0; k < g.arity(); ++k) note_head(g.q[k]);
  assert(remaining_ > 0);
  --remaining_;
}

void DependencyTracker::note_head(std::int32_t qubit) {
  const auto head = next_gate(qubit);
  if (!head || !is_ready(*head)) return;
  const auto bit =
      static_cast<std::size_t>(lowest_qubit(circuit_->gate(*head)));
  ready_[bit / kWordBits] |= std::uint64_t{1} << (bit % kWordBits);
}

void DependencyTracker::ready_gates(std::vector<std::size_t>& out) const {
  out.clear();
  for (std::size_t w = 0; w < ready_.size(); ++w) {
    for (std::uint64_t bits = ready_[w]; bits != 0; bits &= bits - 1) {
      const std::size_t q =
          w * kWordBits + static_cast<std::size_t>(std::countr_zero(bits));
      const std::size_t gate = per_qubit_[q][cursor_[q]];
      assert(is_ready(gate) && static_cast<std::size_t>(lowest_qubit(
                                   circuit_->gate(gate))) == q);
      out.push_back(gate);
    }
  }
}

std::vector<std::vector<std::size_t>> asap_layers(const Circuit& circuit) {
  std::vector<std::size_t> level(static_cast<std::size_t>(circuit.n_qubits()),
                                 0);
  std::vector<std::vector<std::size_t>> layers;
  std::size_t barrier_floor = 0;
  const auto& gates = circuit.gates();
  for (std::size_t i = 0; i < gates.size(); ++i) {
    const Gate& g = gates[i];
    if (g.type == GateType::kBarrier) {
      for (auto l : level) barrier_floor = std::max(barrier_floor, l);
      std::fill(level.begin(), level.end(), barrier_floor);
      continue;
    }
    std::size_t start = barrier_floor;
    for (int k = 0; k < g.arity(); ++k) {
      start = std::max(start, level[static_cast<std::size_t>(g.q[k])]);
    }
    if (start >= layers.size()) layers.resize(start + 1);
    layers[start].push_back(i);
    for (int k = 0; k < g.arity(); ++k) {
      level[static_cast<std::size_t>(g.q[k])] = start + 1;
    }
  }
  return layers;
}

}  // namespace parallax::circuit
