// Post-hoc schedule validation: re-checks a CompileResult against the
// paper's physical and logical invariants. Used by the property-test suite
// and available to downstream users as a safety net after custom
// modifications to the pipeline.
//
// Logical invariants (always checkable):
//   L1  zero SWAP gates in a Parallax result;
//   L2  every non-barrier gate scheduled exactly once;
//   L3  no two gates in a layer touch the same qubit;
//   L4  per-qubit gate order equals the circuit's program order.
// Physical invariants (need SchedulerOptions::record_positions):
//   P1  every CZ executes with its atoms within the interaction radius;
//   P2  no two distinct CZs in a layer violate the blockade radius;
//   P3  the minimum separation constraint holds at every execution snapshot.
// A layer whose gate range is reversed or runs past the result's
// layer_gates, and a gate index past the circuit, fail L2 and are skipped by
// the other checks; a snapshot or in_aod vector that does not hold one entry
// per qubit fails P1 and is never indexed.
#pragma once

#include <string>
#include <vector>

#include "hardware/config.hpp"
#include "parallax/result.hpp"

namespace parallax::compiler {

struct ValidationReport {
  bool ok = true;
  std::vector<std::string> violations;

  void fail(std::string message) {
    ok = false;
    violations.push_back(std::move(message));
  }
};

/// Validates all checkable invariants of `result` on `config`.
/// `expect_zero_swaps` should be true for Parallax results and false for
/// the SWAP-routing baselines.
[[nodiscard]] ValidationReport validate_schedule(
    const CompileResult& result, const hardware::HardwareConfig& config,
    bool expect_zero_swaps = true);

/// The continuous-time event ledger (implemented by the discrete-event
/// simulator, src/sim/ledger.cpp): replays the schedule as timestamped
/// events and checks the invariants per-layer snapshots cannot see —
///   E0  every layer records atom positions (one per logical qubit);
///   E1  the event timeline is sane (ordered, non-negative durations);
///   E2  min-separation holds at every event boundary configuration, and no
///       two atoms occupy one site (an atom cannot be in two places);
///   E3  no atom teleports: per-layer displacement from the layer's start
///       configuration is within the layer's recorded movement budget;
///   E4  each layer's `duration_us` matches the simulated wall time of its
///       event legs within tolerance, and `runtime_us` matches their sum.
[[nodiscard]] ValidationReport validate_continuous(
    const CompileResult& result, const hardware::HardwareConfig& config);

}  // namespace parallax::compiler
