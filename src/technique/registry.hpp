// The Technique registry: the uniform front door to every compiler. A
// technique is a name ("parallax", "eldi", "graphine", "static") mapped to a
// pipeline factory; callers compile through the registry instead of bespoke
// per-baseline entry points, so benches, examples, the CLI, and the sweep
// driver treat all techniques identically — and new techniques (a different
// router, a learned placement) plug in without touching any caller.
#pragma once

#include <functional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "pipeline/pipeline.hpp"

namespace parallax::technique {

/// Thrown for a name the registry does not know; the message lists every
/// registered technique.
class UnknownTechniqueError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

struct TechniqueInfo {
  std::string name;
  std::string description;
  /// Builds the technique's pipeline. Receives the compile options so a
  /// factory may choose its pass list structurally (none of the built-ins
  /// currently do).
  std::function<pipeline::Pipeline(const pipeline::CompileOptions&)> factory;
  /// Optional option tuning the technique declares for itself (e.g.
  /// graphine-mc4 switching placement to batched multi-chain annealing).
  /// Every driver applies it through apply_tuning() before deriving memo
  /// keys or fingerprints, so a tuned variant is "its base pipeline with
  /// these options" uniformly across compile, sweep, shard, and serve —
  /// caching and placement sharing come for free.
  std::function<void(pipeline::CompileOptions&)> tune;
};

class Registry {
 public:
  using Factory = std::function<pipeline::Pipeline(
      const pipeline::CompileOptions&)>;

  /// An empty registry (for tests or custom technique sets).
  Registry() = default;
  /// A registry pre-loaded with the four built-in techniques.
  [[nodiscard]] static Registry with_builtins();
  /// The process-wide registry of built-ins.
  [[nodiscard]] static const Registry& global();

  using Tune = std::function<void(pipeline::CompileOptions&)>;

  /// Registers a technique. Throws std::invalid_argument on a duplicate
  /// name. `tune` (optional) is the technique's option adjustment; see
  /// TechniqueInfo::tune.
  void add(std::string name, std::string description, Factory factory,
           Tune tune = {});

  /// Applies the technique's declared option tuning (no-op when it has
  /// none). Callers that derive keys from options themselves (the sweep
  /// driver) must call this before doing so.
  void apply_tuning(std::string_view name,
                    pipeline::CompileOptions& options) const;

  [[nodiscard]] bool contains(std::string_view name) const noexcept;
  /// Technique names in registration order.
  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] const TechniqueInfo& info(std::string_view name) const;

  [[nodiscard]] pipeline::Pipeline make_pipeline(
      std::string_view name, const pipeline::CompileOptions& options = {}) const;

  /// Builds the technique's pipeline and runs it over `input` for `config`.
  [[nodiscard]] compiler::CompileResult compile(
      std::string_view name, const circuit::Circuit& input,
      const hardware::HardwareConfig& config,
      const pipeline::CompileOptions& options = {}) const;

 private:
  std::vector<TechniqueInfo> techniques_;
};

/// Compiles via the global registry — the one-call front door:
///   technique::compile("eldi", circuit, config, options)
[[nodiscard]] compiler::CompileResult compile(
    std::string_view name, const circuit::Circuit& input,
    const hardware::HardwareConfig& config,
    const pipeline::CompileOptions& options = {});

}  // namespace parallax::technique
