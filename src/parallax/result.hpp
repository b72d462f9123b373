// Output of a compilation: the scheduled layers, movement/trap-change
// accounting, and the runtime model's totals. Shared by Parallax and the
// baseline compilers so the bench harness can treat techniques uniformly.
#pragma once

#include <cassert>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "circuit/circuit.hpp"
#include "placement/discretize.hpp"

namespace parallax::compiler {

/// One hardware-executable layer: gates that run simultaneously, plus the
/// movement and trap-change activity that preceded them. Its gates are the
/// range [gates_begin, gates_end) of its result's `layer_gates`; read them
/// through CompileResult::gates.
struct Layer {
  std::size_t gates_begin = 0;
  std::size_t gates_end = 0;
  double move_distance_um = 0.0;    // max distance any atom moved (inbound)
  double return_distance_um = 0.0;  // max distance for the home-return leg
  int aod_moves = 0;                // move-into-range operations this layer
  int trap_changes = 0;             // 100 us AOD trap-change operations
  double duration_us = 0.0;         // total wall time of this layer
  /// Atom positions at gate execution time (one per logical qubit). Only
  /// populated when SchedulerOptions::record_positions is set; enables the
  /// physical-invariant validator (parallax/validate.hpp).
  std::vector<geom::Point> positions;
};

struct CompileStats {
  std::size_t u3_gates = 0;
  std::size_t cz_gates = 0;       // native CZ executions
  std::size_t swap_gates = 0;     // SWAPs inserted by routing (baselines)
  /// Paper Fig. 9 metric: CZ executions including 3 per SWAP.
  [[nodiscard]] std::size_t effective_cz() const noexcept {
    return cz_gates + 3 * swap_gates;
  }
  std::size_t layers = 0;
  std::size_t aod_moves = 0;         // move-into-range operations
  std::size_t trap_changes = 0;      // total trap-change operations
  std::size_t out_of_range_cz = 0;   // CZs that required movement or a trap
                                     // change
  std::size_t slm_slm_cz = 0;        // CZs between two SLM atoms out of range
                                     // (the paper's ~1.3% case)
  double max_move_distance_um = 0.0;
  double total_move_distance_um = 0.0;
};

/// Wall-clock of one pipeline pass. Observational metadata: it is excluded
/// from the compilation cache's serialized payloads and from every
/// determinism guarantee.
struct PassTiming {
  std::string pass;
  double seconds = 0.0;
  /// The pass's product was served from a cache instead of computed: the
  /// sweep driver marks transpile/placement stages it satisfied from its
  /// memos or the persistent cache, and a whole-result cache hit marks
  /// every pass.
  bool cached = false;
};

struct CompileResult {
  std::string technique;          // "parallax", "eldi", or "graphine"
  circuit::Circuit circuit;       // the gate stream actually scheduled
  placement::PhysicalTopology topology;
  std::vector<Layer> layers;
  /// Every layer's gates, indices into `circuit`, layer after layer.
  std::vector<std::size_t> layer_gates;
  std::vector<std::int8_t> in_aod;  // per logical qubit, after AOD selection
  CompileStats stats;
  /// One logical shot's runtime (us) — the paper's Table IV metric.
  double runtime_us = 0.0;
  /// Per-pass compile-time profile, in pipeline order (ROADMAP: O(q^5)
  /// placement dominance without google-benchmark).
  std::vector<PassTiming> pass_timings;

  /// True when `layer`'s gate range lies in `layer_gates`.
  [[nodiscard]] bool gates_fit(const Layer& layer) const noexcept {
    return layer.gates_begin <= layer.gates_end &&
           layer.gates_end <= layer_gates.size();
  }
  /// The gates of `layer`, whose range must fit (validate_schedule reports
  /// a layer whose range does not, and sim::build_timeline rejects it).
  [[nodiscard]] std::span<const std::size_t> gates(const Layer& layer) const {
    assert(gates_fit(layer));
    return std::span(layer_gates)
        .subspan(layer.gates_begin, layer.gates_end - layer.gates_begin);
  }

  [[nodiscard]] std::size_t aod_qubit_count() const {
    std::size_t n = 0;
    for (auto f : in_aod) n += (f != 0);
    return n;
  }
};

}  // namespace parallax::compiler
