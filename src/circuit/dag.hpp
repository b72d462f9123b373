// Per-qubit dependency tracking over a circuit's gate list. This is the
// structure Algorithm 1 (the Parallax scheduler) iterates: a gate is ready
// when it is the next unexecuted gate on every qubit it touches. The tracker
// keeps the ready gates as a set, updated as gates execute, so a scheduler
// reads each layer's candidates without rescanning every qubit.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "circuit/circuit.hpp"

namespace parallax::circuit {

class DependencyTracker {
 public:
  explicit DependencyTracker(const Circuit& circuit);

  /// Index (into circuit.gates()) of the next unexecuted gate on `qubit`,
  /// or nullopt if the qubit has no gates left.
  [[nodiscard]] std::optional<std::size_t> next_gate(std::int32_t qubit) const;

  /// A gate is ready iff it is the head of every involved qubit's queue.
  [[nodiscard]] bool is_ready(std::size_t gate_index) const;

  /// Marks a ready gate executed and advances the involved qubits' cursors.
  /// Precondition: is_ready(gate_index).
  void mark_executed(std::size_t gate_index);

  /// Replaces `out` with the ready gates in ascending order of their lowest
  /// qubit: the list a scan of next_gate(q) for q = 0, 1, ... builds when it
  /// keeps the ready heads and drops a two-qubit gate's second appearance.
  /// Two ready gates never share a qubit, so the order is strict.
  void ready_gates(std::vector<std::size_t>& out) const;

  [[nodiscard]] std::size_t remaining() const noexcept { return remaining_; }
  [[nodiscard]] bool done() const noexcept { return remaining_ == 0; }

  [[nodiscard]] const Circuit& circuit() const noexcept { return *circuit_; }

 private:
  const Circuit* circuit_;
  // per_qubit_[q] = ordered gate indices touching q; cursor_[q] = position of
  // the next unexecuted one.
  std::vector<std::vector<std::size_t>> per_qubit_;
  std::vector<std::size_t> cursor_;
  std::size_t remaining_ = 0;
  // Bit q is set iff the head of q's queue is ready and q is its lowest
  // qubit, so each ready gate has exactly one bit. Executing a gate changes
  // the heads of its own qubits only, so only their bits can change.
  std::vector<std::uint64_t> ready_;

  /// Sets the bit of the head of `qubit`'s queue if that gate is ready.
  void note_head(std::int32_t qubit);
};

/// ASAP layering of a circuit: gates grouped by dependency level only
/// (ignores hardware constraints). Used for depth statistics, tests, and as
/// the baseline layering the routers refine.
[[nodiscard]] std::vector<std::vector<std::size_t>> asap_layers(
    const Circuit& circuit);

}  // namespace parallax::circuit
