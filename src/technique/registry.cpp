#include "technique/registry.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "pipeline/passes.hpp"

namespace parallax::technique {

namespace passes = pipeline::passes;

namespace {

pipeline::Pipeline parallax_passes(std::string technique) {
  pipeline::Pipeline pipeline(std::move(technique));
  pipeline.add(passes::transpile())
      .add(passes::graphine_placement())
      .add(passes::discretize())
      .add(passes::aod_selection())
      .add(passes::schedule());
  return pipeline;
}

pipeline::Pipeline graphine_passes(std::string technique) {
  pipeline::Pipeline pipeline(std::move(technique));
  pipeline.add(passes::transpile())
      .add(passes::graphine_placement())
      .add(passes::discretize())
      .add(passes::swap_route())
      .add(passes::static_schedule());
  return pipeline;
}

// Fast-annealer tunings: the placement annealer switched to the delta-cost
// hot path. Batched sweeps propose n moves per iteration (each scored
// incrementally, with all randomness pre-drawn per iteration), so far fewer
// outer iterations reach legacy quality.
void tune_fast(pipeline::CompileOptions& options) {
  options.placement.proposal = placement::ProposalMode::kBatched;
  // 120 batched sweeps + a 300-evaluation lean polish land at or below the
  // legacy 600-iteration objective on every table04 circuit (TFIM-128:
  // bit-equal 229.64) at ~11.6ms vs 147.8ms legacy wall.
  options.placement.anneal_iterations = 120;
  options.placement.local_search_evaluations = 300;
}

void tune_mc4(pipeline::CompileOptions& options) {
  tune_fast(options);
  options.placement.chains = 4;
  // Four chains buy exploration, not just wall-clock: with the longer
  // budget the reduced winner lands in measurably better basins than the
  // legacy single full-vector chain (TFIM-128: ~16% lower objective),
  // while the per-chain delta cost keeps each chain ~5x cheaper than one
  // legacy anneal.
  options.placement.anneal_iterations = 250;
}

// Raced optimizer portfolio: the fast anneal budget is split across four
// entrants (delta single-chain, mc4 reduction, Nelder-Mead polish, fresh
// restart) and the deterministic strict-< winner is kept — robustness
// against any one optimizer stalling, at roughly the single-chain cost.
void tune_race(pipeline::CompileOptions& options) {
  tune_fast(options);
  options.placement.portfolio_entrants = 4;
}

/// A tuned variant: a base technique's pass list under the variant's own
/// name, with its option tuning.
struct TunedVariant {
  const char* name;
  const char* description;
  pipeline::Pipeline (*base)(std::string technique);
  void (*tune)(pipeline::CompileOptions& options);
};

constexpr TunedVariant kTunedVariants[] = {
    {"parallax-fast",
     "parallax with delta-cost per-qubit annealing (single chain): "
     "identical pass list, order-of-magnitude cheaper placement search",
     parallax_passes, tune_fast},
    {"parallax-mc4",
     "parallax with 4-chain deterministic delta-cost annealing (best of "
     "four independent seeds, thread-count-invariant winner)",
     parallax_passes, tune_mc4},
    {"graphine-mc4",
     "graphine baseline with 4-chain deterministic delta-cost annealing",
     graphine_passes, tune_mc4},
    {"parallax-race",
     "parallax with a budget-raced optimizer portfolio (delta, mc4, "
     "Nelder-Mead polish, fresh restart; deterministic winner)",
     parallax_passes, tune_race},
};

}  // namespace

Registry Registry::with_builtins() {
  Registry registry;
  registry.add(
      "parallax",
      "the paper's four-step compiler: annealed placement, discretization, "
      "AOD selection, movement scheduling (zero SWAPs)",
      [](const pipeline::CompileOptions&) {
        return parallax_passes("parallax");
      });
  registry.add(
      "eldi",
      "ELDI baseline: compact-grid greedy placement, SWAP routing over "
      "8-neighbour connectivity, static scheduling",
      [](const pipeline::CompileOptions&) {
        pipeline::Pipeline pipeline("eldi");
        pipeline.add(passes::transpile())
            .add(passes::eldi_placement())
            .add(passes::swap_route())
            .add(passes::static_schedule());
        return pipeline;
      });
  registry.add(
      "graphine",
      "GRAPHINE baseline: the same annealed placement as Parallax, but atoms "
      "stay static and out-of-range CZs cost SWAP chains",
      [](const pipeline::CompileOptions&) {
        return graphine_passes("graphine");
      });
  registry.add(
      "static",
      "no-optimization control: identity placement on a compact square, SWAP "
      "routing, static scheduling",
      [](const pipeline::CompileOptions&) {
        pipeline::Pipeline pipeline("static");
        pipeline.add(passes::transpile())
            .add(passes::identity_placement())
            .add(passes::swap_route())
            .add(passes::static_schedule());
        return pipeline;
      });
  for (const TunedVariant& variant : kTunedVariants) {
    registry.add(
        variant.name, variant.description,
        [variant](const pipeline::CompileOptions&) {
          return variant.base(variant.name);
        },
        variant.tune);
  }
  return registry;
}

const Registry& Registry::global() {
  static const Registry registry = with_builtins();
  return registry;
}

void Registry::add(std::string name, std::string description, Factory factory,
                   Tune tune) {
  if (contains(name)) {
    throw std::invalid_argument("technique '" + name +
                                "' is already registered");
  }
  techniques_.push_back({std::move(name), std::move(description),
                         std::move(factory), std::move(tune)});
}

void Registry::apply_tuning(std::string_view name,
                            pipeline::CompileOptions& options) const {
  const TechniqueInfo& technique = info(name);
  if (technique.tune) technique.tune(options);
}

bool Registry::contains(std::string_view name) const noexcept {
  return std::any_of(
      techniques_.begin(), techniques_.end(),
      [&](const TechniqueInfo& info) { return info.name == name; });
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> names;
  names.reserve(techniques_.size());
  for (const auto& info : techniques_) names.push_back(info.name);
  return names;
}

const TechniqueInfo& Registry::info(std::string_view name) const {
  const auto it = std::find_if(
      techniques_.begin(), techniques_.end(),
      [&](const TechniqueInfo& info) { return info.name == name; });
  if (it == techniques_.end()) {
    std::string known;
    for (const auto& info : techniques_) {
      if (!known.empty()) known += ", ";
      known += info.name;
    }
    throw UnknownTechniqueError("unknown technique '" + std::string(name) +
                                "' (known: " + known + ")");
  }
  return *it;
}

pipeline::Pipeline Registry::make_pipeline(
    std::string_view name, const pipeline::CompileOptions& options) const {
  return info(name).factory(options);
}

compiler::CompileResult Registry::compile(
    std::string_view name, const circuit::Circuit& input,
    const hardware::HardwareConfig& config,
    const pipeline::CompileOptions& options) const {
  pipeline::CompileOptions tuned = options;
  apply_tuning(name, tuned);
  return make_pipeline(name, tuned).run(input, config, tuned);
}

compiler::CompileResult compile(std::string_view name,
                                const circuit::Circuit& input,
                                const hardware::HardwareConfig& config,
                                const pipeline::CompileOptions& options) {
  return Registry::global().compile(name, input, config, options);
}

}  // namespace parallax::technique
