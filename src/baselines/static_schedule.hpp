// Hardware-aware layering for circuits on *static* atoms (the baselines):
// same dependency/layering/blockade logic as Parallax's Algorithm 1, minus
// atom movement — routing has already made every CZ in-range.
#pragma once

#include <cstdint>
#include <vector>

#include "circuit/circuit.hpp"
#include "geometry/point.hpp"
#include "hardware/config.hpp"
#include "parallax/result.hpp"

namespace parallax::baselines {

struct StaticScheduleOutput {
  std::vector<compiler::Layer> layers;
  std::vector<std::size_t> layer_gates;  // see CompileResult::layer_gates
  double runtime_us = 0.0;
};

/// Schedules `circuit` (whose qubit indices are atom indices at `positions`)
/// into blockade-respecting layers. `blockade_radius` gates CZ/SWAP
/// parallelism; U3 gates parallelize freely.
[[nodiscard]] StaticScheduleOutput schedule_static(
    const circuit::Circuit& circuit, const std::vector<geom::Point>& positions,
    double blockade_radius, const hardware::HardwareConfig& config,
    std::uint64_t shuffle_seed);

}  // namespace parallax::baselines
