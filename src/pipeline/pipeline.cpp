#include "pipeline/pipeline.hpp"

#include <stdexcept>

#include "util/stopwatch.hpp"

namespace parallax::pipeline {

std::vector<std::string> Pipeline::pass_names() const {
  std::vector<std::string> names;
  names.reserve(passes_.size());
  for (const auto& pass : passes_) names.push_back(pass.name());
  return names;
}

compiler::CompileResult Pipeline::run(const circuit::Circuit& input,
                                      const hardware::HardwareConfig& config,
                                      const CompileOptions& options,
                                      const SharedPlacement& shared) const {
  if (shared.memo != nullptr && !options.assume_transpiled) {
    throw std::invalid_argument(
        "a shared placement memo keys on the input's fingerprint; transpile "
        "the input and set assume_transpiled before lending one");
  }
  if (input.n_qubits() > config.n_atoms()) {
    throw CompileError("circuit '" + input.name() + "' needs " +
                       std::to_string(input.n_qubits()) +
                       " qubits; machine '" + config.name + "' has " +
                       std::to_string(config.n_atoms()) + " atoms");
  }
  CompileOptions effective = options;
  if (effective.fidelity.model == noise::FidelityModel::kSimulated) {
    // The simulator cannot run without per-layer atom positions; force the
    // recording on so a simulated-fidelity compile is always simulatable.
    effective.scheduler.record_positions = true;
  }
  CompileContext context(input, config, std::move(effective));
  context.result.technique = technique_;
  context.shared = shared;
  context.result.pass_timings.reserve(passes_.size());
  for (const auto& pass : passes_) {
    const util::Stopwatch watch;
    context.pass_cached = false;
    pass.run(context);
    context.result.pass_timings.push_back(
        {pass.name(), watch.seconds(), context.pass_cached});
  }
  return std::move(context.result);
}

}  // namespace parallax::pipeline
