// The discrete-event view of one compiled schedule: every layer of a
// compiler::CompileResult unrolled into timestamped hardware events — AOD
// movement legs at HardwareConfig speeds, trap pickup/drop operations,
// U3/CZ/SWAP pulses, and the home-return leg. The timeline is a pure
// function of (result, config): building it twice, on any thread, yields
// identical events, which is what the Monte Carlo simulator
// (sim/simulator.hpp) and the continuous-time ledger
// (parallax/validate.hpp::validate_continuous) are built on.
//
// Timing contract: each layer's wall time is computed with the scheduler's
// exact expression over the layer's recorded scalars —
//   max_gate_time + (move + return distance) / aod_speed
//                 + trap_changes * trap_switch_time
// — in the scheduler's operand order, so a zero-noise replay reproduces
// Layer::duration_us and CompileResult::runtime_us byte-for-byte.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "geometry/point.hpp"
#include "hardware/config.hpp"
#include "parallax/result.hpp"

namespace parallax::sim {

/// Thrown on unsimulatable input: a schedule without recorded atom
/// positions, a layer gate range outside the result's layer_gates, a gate
/// index outside the circuit, malformed layer scalars.
/// Deliberately a distinct type so callers can separate "this schedule
/// cannot be simulated" from a simulation finding a physics violation.
class SimError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class EventKind : std::uint8_t {
  kMoveLeg = 1,     // inbound AOD movement at aod_speed_um_per_us
  kTrapChange = 2,  // SLM<->AOD trap pickup/drop operations
  kGatePulse = 3,   // one U3/CZ/SWAP (or timeless measure/barrier) pulse
  kReturnLeg = 4,   // home-return AOD movement leg
};

inline constexpr std::size_t kNoGate = static_cast<std::size_t>(-1);

struct Event {
  EventKind kind = EventKind::kGatePulse;
  std::size_t layer = 0;
  double t_start_us = 0.0;
  double t_end_us = 0.0;
  /// Circuit gate index for kGatePulse events; kNoGate otherwise.
  std::size_t gate = kNoGate;
  /// Operations bundled in this leg: AOD moves for kMoveLeg, pickup/drop
  /// pairs for kTrapChange. Each is one error-channel draw.
  int count = 0;
  double distance_um = 0.0;
};

struct Timeline {
  /// Time-ordered, layer-major events. Gate pulses of one layer share a
  /// start time (they execute simultaneously on hardware).
  std::vector<Event> events;
  /// Per-layer simulated wall time (the exact scheduler expression; see the
  /// header comment) — equals Layer::duration_us for an untampered schedule.
  std::vector<double> layer_wall_us;
  /// Wall times accumulated in layer order, matching the scheduler's
  /// runtime_us accumulation byte-for-byte.
  double total_us = 0.0;
};

/// Pulse duration of one gate — the scheduler's own table (U3/CZ/SWAP times
/// from the config; measure and barrier are timeless).
[[nodiscard]] double gate_pulse_us(const circuit::Gate& gate,
                                   const hardware::HardwareConfig& config);

/// Throws SimError naming the offending layer unless every layer of
/// `result` records one atom position per logical qubit (the satellite
/// guarantee: a CompileResult without positions fails loudly, it never
/// crashes the simulator). Compile with FidelityModel::kSimulated or
/// SchedulerOptions::record_positions to populate them.
void require_positions(const compiler::CompileResult& result);

/// The atom configuration at the *start* of each layer: the topology's home
/// configuration when the previous layer returned home (and for layer 0),
/// the previous layer's execution snapshot otherwise (the Fig. 12 no-return
/// mode, where home drifts with the atoms). Requires positions.
[[nodiscard]] std::vector<std::vector<geom::Point>> layer_start_configs(
    const compiler::CompileResult& result);

/// Unrolls `result` into its event timeline. Throws SimError on a layer
/// gate range outside `result.layer_gates`, gate indices outside the
/// circuit or negative layer scalars.
[[nodiscard]] Timeline build_timeline(const compiler::CompileResult& result,
                                      const hardware::HardwareConfig& config);

}  // namespace parallax::sim
