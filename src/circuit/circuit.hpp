// Quantum circuit container: an ordered gate list over n qubits. The order of
// the list is the program order; per-qubit order is what schedulers must
// preserve (gates on disjoint qubits commute freely).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/gate.hpp"

namespace parallax::cache {
struct CircuitFields;
}

namespace parallax::circuit {

class Circuit {
 public:
  Circuit() = default;
  explicit Circuit(std::int32_t n_qubits, std::string name = "");

  [[nodiscard]] std::int32_t n_qubits() const noexcept { return n_qubits_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }

  [[nodiscard]] const std::vector<Gate>& gates() const noexcept {
    return gates_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return gates_.size(); }
  void reserve(std::size_t n_gates) { gates_.reserve(n_gates); }
  [[nodiscard]] bool empty() const noexcept { return gates_.empty(); }
  [[nodiscard]] const Gate& gate(std::size_t i) const noexcept {
    return gates_[i];
  }

  /// Appends a gate; validates qubit indices against n_qubits().
  void append(const Gate& g);

  // Convenience builders (all reduce to the {U3, CZ} basis immediately).
  void u3(std::int32_t q, double theta, double phi, double lambda);
  void cz(std::int32_t a, std::int32_t b);
  void swap(std::int32_t a, std::int32_t b);  // baselines/testing only
  void measure(std::int32_t q);
  void barrier();

  // Common derived gates expressed in the basis (used by generators).
  void h(std::int32_t q);
  void x(std::int32_t q);
  void y(std::int32_t q);
  void z(std::int32_t q);
  void s(std::int32_t q);
  void sdg(std::int32_t q);
  void t(std::int32_t q);
  void tdg(std::int32_t q);
  void rx(std::int32_t q, double angle);
  void ry(std::int32_t q, double angle);
  void rz(std::int32_t q, double angle);
  void cx(std::int32_t control, std::int32_t target);
  void cp(std::int32_t a, std::int32_t b, double angle);  // controlled-phase
  void rzz(std::int32_t a, std::int32_t b, double angle);
  void ccx(std::int32_t c0, std::int32_t c1, std::int32_t target);
  void ccz(std::int32_t a, std::int32_t b, std::int32_t c);
  void cswap(std::int32_t control, std::int32_t a, std::int32_t b);
  void measure_all();

  // Statistics.
  [[nodiscard]] std::size_t count(GateType type) const noexcept;
  [[nodiscard]] std::size_t cz_count() const noexcept {
    return count(GateType::kCZ);
  }
  [[nodiscard]] std::size_t u3_count() const noexcept {
    return count(GateType::kU3);
  }
  [[nodiscard]] std::size_t swap_count() const noexcept {
    return count(GateType::kSwap);
  }
  /// Number of two-qubit CZ executions including those inside SWAPs
  /// (1 SWAP = 3 CZ), i.e. the metric of the paper's Fig. 9.
  [[nodiscard]] std::size_t effective_cz_count() const noexcept {
    return cz_count() + 3 * swap_count();
  }

  /// ASAP circuit depth counting U3/CZ/SWAP gates (barriers advance all
  /// qubits; measurements count one level).
  [[nodiscard]] std::size_t depth() const;

  /// Replaces the gate list (used by transpiler passes).
  void replace_gates(std::vector<Gate> gates);

 private:
  /// The codec's field list (cache/serialize.hpp) reads the members in
  /// place, with the checks append() makes.
  friend struct cache::CircuitFields;

  std::int32_t n_qubits_ = 0;
  std::string name_;
  std::vector<Gate> gates_;
};

}  // namespace parallax::circuit
