// Technique registry tests: name lookup and errors, the four built-in
// pipelines end to end on small circuits, parity between the registry front
// door and the legacy compiler::compile entry point, and per-technique
// determinism.
#include <gtest/gtest.h>

#include "cache/fingerprint.hpp"
#include "circuit/transpile.hpp"
#include "hardware/config.hpp"
#include "parallax/compiler.hpp"
#include "pipeline/passes.hpp"
#include "pipeline/placement_memo.hpp"
#include "technique/registry.hpp"

namespace pc = parallax::circuit;
namespace ph = parallax::hardware;
namespace pt = parallax::technique;
namespace pp = parallax::pipeline;
namespace px = parallax::compiler;

namespace {

pc::Circuit ghz(std::int32_t n) {
  pc::Circuit c(n, "ghz" + std::to_string(n));
  c.h(0);
  for (std::int32_t q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  c.measure_all();
  return c;
}

pc::Circuit ring(std::int32_t n) {
  pc::Circuit c(n, "ring" + std::to_string(n));
  for (std::int32_t q = 0; q < n; ++q) c.cz(q, (q + 1) % n);
  return c;
}

/// Small annealing budget so registry tests stay fast.
pp::CompileOptions fast_options() {
  pp::CompileOptions options;
  options.placement.anneal_iterations = 120;
  options.placement.local_search_evaluations = 80;
  return options;
}

void expect_same_result(const px::CompileResult& a,
                        const px::CompileResult& b) {
  EXPECT_EQ(a.technique, b.technique);
  EXPECT_EQ(a.stats.cz_gates, b.stats.cz_gates);
  EXPECT_EQ(a.stats.u3_gates, b.stats.u3_gates);
  EXPECT_EQ(a.stats.swap_gates, b.stats.swap_gates);
  EXPECT_EQ(a.stats.layers, b.stats.layers);
  EXPECT_EQ(a.stats.trap_changes, b.stats.trap_changes);
  EXPECT_EQ(a.runtime_us, b.runtime_us);
  EXPECT_EQ(a.layers.size(), b.layers.size());
  EXPECT_EQ(a.topology.sites.size(), b.topology.sites.size());
  for (std::size_t i = 0; i < a.topology.sites.size(); ++i) {
    EXPECT_EQ(a.topology.sites[i], b.topology.sites[i]) << "site " << i;
  }
}

}  // namespace

TEST(Registry, ListsBuiltinsInOrder) {
  const auto names = pt::Registry::global().names();
  ASSERT_EQ(names.size(), 8u);
  EXPECT_EQ(names[0], "parallax");
  EXPECT_EQ(names[1], "eldi");
  EXPECT_EQ(names[2], "graphine");
  EXPECT_EQ(names[3], "static");
  EXPECT_EQ(names[4], "parallax-fast");
  EXPECT_EQ(names[5], "parallax-mc4");
  EXPECT_EQ(names[6], "graphine-mc4");
  EXPECT_EQ(names[7], "parallax-race");
  for (const auto& name : names) {
    EXPECT_TRUE(pt::Registry::global().contains(name));
    EXPECT_FALSE(pt::Registry::global().info(name).description.empty());
  }
}

TEST(Registry, UnknownNameThrowsWithKnownNames) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  try {
    (void)pt::compile("parallaxx", ghz(4), config);
    FAIL() << "expected UnknownTechniqueError";
  } catch (const pt::UnknownTechniqueError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("parallaxx"), std::string::npos);
    EXPECT_NE(message.find("parallax"), std::string::npos);
    EXPECT_NE(message.find("eldi"), std::string::npos);
    EXPECT_NE(message.find("graphine"), std::string::npos);
    EXPECT_NE(message.find("static"), std::string::npos);
  }
}

TEST(Registry, DuplicateRegistrationThrows) {
  auto registry = pt::Registry::with_builtins();
  EXPECT_THROW(registry.add("parallax", "again",
                            [](const pp::CompileOptions&) {
                              return pp::Pipeline("parallax");
                            }),
               std::invalid_argument);
}

TEST(Registry, CustomTechniquePluggableAlongsideBuiltins) {
  auto registry = pt::Registry::with_builtins();
  // A new technique is just another pass assembly — here ELDI's placement
  // with Parallax's movement scheduling.
  registry.add("eldi-mobile", "eldi placement + AOD movement",
               [](const pp::CompileOptions&) {
                 pp::Pipeline pipeline("eldi-mobile");
                 pipeline.add(pp::passes::transpile())
                     .add(pp::passes::eldi_placement())
                     .add(pp::passes::aod_selection())
                     .add(pp::passes::schedule());
                 return pipeline;
               });
  const auto result = registry.compile(
      "eldi-mobile", ghz(6), ph::HardwareConfig::quera_aquila_256(),
      fast_options());
  EXPECT_EQ(result.technique, "eldi-mobile");
  EXPECT_EQ(result.stats.swap_gates, 0u);
  EXPECT_GT(result.runtime_us, 0.0);
}

TEST(Registry, PipelinesDeclareTheirPasses) {
  const auto& registry = pt::Registry::global();
  using Names = std::vector<std::string>;
  EXPECT_EQ(registry.make_pipeline("parallax").pass_names(),
            (Names{"transpile", "graphine-placement", "discretize",
                   "aod-selection", "schedule"}));
  EXPECT_EQ(registry.make_pipeline("eldi").pass_names(),
            (Names{"transpile", "eldi-placement", "swap-route",
                   "static-schedule"}));
  // graphine shares Step 1 with parallax — the placement memo's sharing
  // precondition.
  EXPECT_EQ(registry.make_pipeline("graphine").pass_names(),
            (Names{"transpile", "graphine-placement", "discretize",
                   "swap-route", "static-schedule"}));
}

TEST(Registry, AllTechniquesCompileSmallCircuits) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  for (const auto& input : {ghz(8), ring(6)}) {
    for (const auto& name : pt::Registry::global().names()) {
      const auto result = pt::compile(name, input, config, fast_options());
      EXPECT_EQ(result.technique, name);
      EXPECT_GT(result.runtime_us, 0.0) << name << "/" << input.name();
      EXPECT_EQ(result.stats.layers, result.layers.size());
      // Every technique executes the circuit's own CZs; only the static-atom
      // baselines may add SWAPs.
      EXPECT_EQ(result.stats.cz_gates,
                pc::transpile(input).cz_count())
          << name << "/" << input.name();
      if (name == "parallax") {
        EXPECT_EQ(result.stats.swap_gates, 0u);
      }
    }
  }
}

TEST(Registry, ParallaxMatchesLegacyCompilerEntryPoint) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  for (const auto& input : {ghz(8), ring(6), ghz(12)}) {
    const auto via_registry =
        pt::compile("parallax", input, config, fast_options());
    const auto via_compiler = px::compile(input, config, fast_options());
    expect_same_result(via_registry, via_compiler);
  }
}

TEST(Registry, DeterministicPerTechnique) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const auto input = ring(8);
  for (const auto& name : pt::Registry::global().names()) {
    const auto a = pt::compile(name, input, config, fast_options());
    const auto b = pt::compile(name, input, config, fast_options());
    expect_same_result(a, b);
  }
}

TEST(Registry, PresetTopologySkipsAnnealing) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const auto input = pc::transpile(ghz(5));
  auto options = fast_options();
  options.assume_transpiled = true;
  parallax::placement::Topology preset;
  for (int q = 0; q < 5; ++q) preset.positions.push_back({0.2 * q, 0.1});
  options.preset_topology = preset;
  for (const char* name : {"parallax", "graphine"}) {
    const auto result = pt::compile(name, input, config, options);
    EXPECT_GT(result.runtime_us, 0.0) << name;
  }
}

TEST(PlacementMemo, LentMemoAnnealsOnceAndMatchesUnsharedCompiles) {
  // The graphine-placement pass shares Step 1 through the memo Pipeline::run
  // lends it: the first compilation anneals, the next replays the placement
  // with its timing row marked cached, and both equal unshared compiles.
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const auto input = pc::transpile(ghz(6));
  auto options = fast_options();
  options.assume_transpiled = true;
  pp::PlacementMemo memo;
  const pp::SharedPlacement shared{&memo, parallax::cache::fingerprint(input)};
  const auto& registry = pt::Registry::global();
  for (const std::string name : {"parallax", "graphine"}) {
    const auto result =
        registry.make_pipeline(name, options).run(input, config, options,
                                                  shared);
    expect_same_result(result, pt::compile(name, input, config, options));
    bool placement_cached = false;
    for (const auto& timing : result.pass_timings) {
      if (timing.pass == "graphine-placement") placement_cached = timing.cached;
    }
    EXPECT_EQ(placement_cached, name == "graphine") << name;
  }
  EXPECT_EQ(memo.misses(), 1u);
  EXPECT_EQ(memo.hits(), 1u);
  EXPECT_EQ(memo.anneals(), 1u);
  EXPECT_EQ(memo.disk_hits(), 0u);

  // The memo keys on the input's fingerprint, so the input must already be
  // the circuit the placement pass sees.
  options.assume_transpiled = false;
  EXPECT_THROW((void)registry.make_pipeline("parallax", options)
                   .run(input, config, options, shared),
               std::invalid_argument);
}

TEST(Registry, OversizedCircuitThrowsCompileError) {
  auto config = ph::HardwareConfig::quera_aquila_256();
  const auto input = ring(300);
  for (const auto& name : pt::Registry::global().names()) {
    EXPECT_THROW((void)pt::compile(name, input, config, fast_options()),
                 pp::CompileError)
        << name;
  }
}
