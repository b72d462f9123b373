// The staged compilation pipeline: a CompileContext threaded through named
// Pass stages. The paper's four-step Parallax compiler is one assembly
// (transpile -> graphine-placement -> discretize -> aod-selection ->
// schedule); the baselines are alternative assemblies reusing the same
// stages (e.g. eldi-placement -> swap-route -> static-schedule). Pipelines
// are built by hand or looked up by name via technique::Registry, and fanned
// across circuit x technique x machine matrices by sweep::run.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/transpile.hpp"
#include "geometry/point.hpp"
#include "hardware/config.hpp"
#include "hardware/machine.hpp"
#include "noise/model.hpp"
#include "parallax/aod_selection.hpp"
#include "parallax/result.hpp"
#include "parallax/scheduler.hpp"
#include "placement/discretize.hpp"
#include "placement/graphine.hpp"
#include "util/hash.hpp"

namespace parallax::pipeline {

class PlacementMemo;

/// Thrown when a circuit cannot be compiled for a machine (e.g. more qubits
/// than atoms).
class CompileError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Options for every stage any technique's pipeline may run. A pass reads
/// only the fields it owns, so one options struct serves all techniques.
struct CompileOptions {
  circuit::TranspileOptions transpile{};
  placement::GraphineOptions placement{};
  placement::DiscretizeOptions discretize{};
  compiler::SchedulerOptions scheduler{};
  compiler::AodSelectionOptions aod_selection{};
  /// Input is already in the {U3, CZ} basis; skip transpilation.
  bool assume_transpiled = false;
  /// Pre-computed Graphine placement (the paper's command-line option for
  /// loading earlier results to cut compile time). Skips Step 1. Sharing
  /// one placement across a run's techniques is the PlacementMemo's job,
  /// not this field's.
  std::optional<placement::Topology> preset_topology;
  /// Master seed; placement and shuffle seeds derive from it and the
  /// circuit name via util::derive_seed, so runs are reproducible per
  /// circuit and identical across techniques that share a stage.
  std::uint64_t seed = 0xA77AC5ULL;
  /// How success probability is estimated downstream (closed-form model vs
  /// the discrete-event simulator). Requesting the simulator makes every
  /// scheduling pass record per-layer atom positions — the simulator's
  /// input — regardless of the scheduler's record_positions flag.
  noise::FidelityOptions fidelity{};
};

/// A run-scoped placement memo lent to one compilation, with the
/// cache::fingerprint of the circuit it compiles (already transpiled: the
/// memo keys placements on it). Runtime-only, like every sharing hook.
struct SharedPlacement {
  PlacementMemo* memo = nullptr;
  util::Digest128 input_fingerprint{};
};

/// State threaded through the passes of one compilation. Passes communicate
/// exclusively through this struct: earlier stages fill the fields later
/// stages read, and `result` accumulates the final CompileResult.
struct CompileContext {
  CompileContext(const circuit::Circuit& input_,
                 const hardware::HardwareConfig& config_,
                 CompileOptions options_)
      : input(input_), config(config_), options(std::move(options_)) {}

  const circuit::Circuit& input;
  const hardware::HardwareConfig& config;
  CompileOptions options;

  /// Step-1 output: placement on the normalized [0,1]^2 plane (set by a
  /// placement pass that needs discretization; grid-native placements skip
  /// it and write result.topology directly).
  std::optional<placement::Topology> normalized;
  /// Physical atom positions, one per logical qubit (for the static-atom
  /// routing/scheduling stages).
  std::vector<geom::Point> positions;
  /// The mutable machine model (Parallax Steps 3-4).
  std::optional<hardware::Machine> machine;
  /// Accumulated output; `Pipeline::run` stamps the technique name and
  /// returns it once every pass has run.
  compiler::CompileResult result;
  /// The placement memo lent by the caller (Pipeline::run's `shared`).
  SharedPlacement shared;
  /// Set by a pass whose product came from a memo or cache instead of
  /// being computed here; Pipeline::run copies it into the pass's timing
  /// row and clears it before the next pass.
  bool pass_cached = false;
};

/// One named compilation stage. Cheap to copy; behaviour lives in a
/// std::function so pipelines are plain values that factories can return.
class Pass {
 public:
  Pass(std::string name, std::function<void(CompileContext&)> run)
      : name_(std::move(name)), run_(std::move(run)) {}

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void run(CompileContext& context) const { run_(context); }

 private:
  std::string name_;
  std::function<void(CompileContext&)> run_;
};

/// An ordered list of passes compiled against a technique name.
class Pipeline {
 public:
  explicit Pipeline(std::string technique) : technique_(std::move(technique)) {}

  Pipeline& add(Pass pass) {
    passes_.push_back(std::move(pass));
    return *this;
  }

  [[nodiscard]] const std::string& technique() const noexcept {
    return technique_;
  }
  [[nodiscard]] std::vector<std::string> pass_names() const;

  /// Runs every pass over a fresh context and returns the accumulated
  /// result. Throws CompileError if the circuit needs more qubits than the
  /// machine has atoms; passes may throw their own errors. A `shared` memo
  /// requires options.assume_transpiled (std::invalid_argument otherwise),
  /// since its key is the fingerprint of `input` as placed.
  [[nodiscard]] compiler::CompileResult run(
      const circuit::Circuit& input, const hardware::HardwareConfig& config,
      const CompileOptions& options = {},
      const SharedPlacement& shared = {}) const;

 private:
  std::string technique_;
  std::vector<Pass> passes_;
};

}  // namespace parallax::pipeline
