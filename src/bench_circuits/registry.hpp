// The paper's evaluation suite (Table III): C++ generators for all 18
// benchmarks at the paper's qubit counts. The original evaluation reads
// QASMBench/ArQTiC QASM files; we regenerate each circuit from its published
// construction so the repository is self-contained — the structural
// properties that drive every result (qubit connectivity, 2q-gate density,
// depth) match the source circuits.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"

namespace parallax::bench_circuits {

struct GenOptions {
  std::uint64_t seed = 0xBE7CULL;
  /// VQE at the paper's ~450k-gate scale did not finish compiling under
  /// ELDI in 24 hours; the default generates a reduced-depth VQE so the
  /// whole harness runs in minutes. Set true (`parallax_cli bench
  /// --full-scale`) for the paper-scale circuit.
  bool full_scale = false;
};

struct BenchmarkInfo {
  std::string acronym;     // paper Table III name (e.g. "QAOA")
  std::int32_t qubits;     // paper qubit count
  std::string description; // paper Table III description
  std::function<circuit::Circuit(const GenOptions&)> make;
};

/// All 18 benchmarks in the paper's Table III order.
[[nodiscard]] const std::vector<BenchmarkInfo>& all_benchmarks();

/// Generates one benchmark by acronym (case-sensitive). Throws
/// std::invalid_argument for unknown names.
[[nodiscard]] circuit::Circuit make_benchmark(const std::string& acronym,
                                              const GenOptions& options = {});

// Individual generators (exposed for tests and custom scales).
[[nodiscard]] circuit::Circuit make_add(std::int32_t n_bits,
                                        const GenOptions& options);
[[nodiscard]] circuit::Circuit make_adv(std::int32_t side, int depth,
                                        const GenOptions& options);
[[nodiscard]] circuit::Circuit make_gcm(std::int32_t n_qubits,
                                        const GenOptions& options);
[[nodiscard]] circuit::Circuit make_hsb(std::int32_t n_qubits, int steps,
                                        const GenOptions& options);
[[nodiscard]] circuit::Circuit make_hlf(std::int32_t n_qubits,
                                        const GenOptions& options);
[[nodiscard]] circuit::Circuit make_knn(std::int32_t n_features,
                                        const GenOptions& options);
[[nodiscard]] circuit::Circuit make_mlt(std::int32_t n_bits,
                                        const GenOptions& options);
[[nodiscard]] circuit::Circuit make_qaoa(std::int32_t n_nodes, int p_rounds,
                                         const GenOptions& options);
[[nodiscard]] circuit::Circuit make_qec(std::int32_t distance, int rounds,
                                        const GenOptions& options);
[[nodiscard]] circuit::Circuit make_qft(std::int32_t n_qubits,
                                        const GenOptions& options);
[[nodiscard]] circuit::Circuit make_qgan(std::int32_t n_qubits, int layers,
                                         const GenOptions& options);
[[nodiscard]] circuit::Circuit make_qv(std::int32_t n_qubits, int depth,
                                       const GenOptions& options);
[[nodiscard]] circuit::Circuit make_sat(std::int32_t n_vars,
                                        const GenOptions& options);
[[nodiscard]] circuit::Circuit make_seca(const GenOptions& options);
[[nodiscard]] circuit::Circuit make_sqrt(std::int32_t n_qubits,
                                         const GenOptions& options);
[[nodiscard]] circuit::Circuit make_tfim(std::int32_t n_qubits, int steps,
                                         const GenOptions& options);
[[nodiscard]] circuit::Circuit make_vqe(std::int32_t n_qubits, int layers,
                                        const GenOptions& options);
[[nodiscard]] circuit::Circuit make_wst(std::int32_t n_qubits,
                                        const GenOptions& options);

}  // namespace parallax::bench_circuits
