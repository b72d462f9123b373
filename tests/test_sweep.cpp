// Sweep-driver tests: thread-count invariance (the acceptance criterion of
// the pipeline refactor), parity with sequential single-circuit compilation,
// placement memoization accounting, the cache handle's transpile map, error
// isolation, and shot planning.
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <memory>
#include <string>
#include <utility>

#include "bench_circuits/registry.hpp"
#include "cache/cache.hpp"
#include "cache/fingerprint.hpp"
#include "circuit/circuit.hpp"
#include "circuit/transpile.hpp"
#include "hardware/config.hpp"
#include "pipeline/passes.hpp"
#include "shard/shard.hpp"
#include "sweep/sweep.hpp"
#include "technique/registry.hpp"

namespace pc = parallax::circuit;
namespace pcache = parallax::cache;
namespace ph = parallax::hardware;
namespace pp = parallax::pipeline;
namespace pt = parallax::technique;
namespace sh = parallax::shard;
namespace sw = parallax::sweep;

namespace {

pc::Circuit ghz(std::int32_t n, const std::string& name) {
  pc::Circuit c(n, name);
  c.h(0);
  for (std::int32_t q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  c.measure_all();
  return c;
}

pc::Circuit ring(std::int32_t n, const std::string& name) {
  pc::Circuit c(n, name);
  for (std::int32_t q = 0; q < n; ++q) c.cz(q, (q + 1) % n);
  return c;
}

std::vector<sw::CircuitSpec> small_circuits() {
  parallax::bench_circuits::GenOptions gen;
  gen.seed = 7;
  return {{"ghz8", ghz(8, "ghz8")},
          {"ring6", ring(6, "ring6")},
          {"qaoa8", parallax::bench_circuits::make_qaoa(8, 1, gen)}};
}

sw::Options fast_sweep_options() {
  sw::Options options;
  options.compile.placement.anneal_iterations = 120;
  options.compile.placement.local_search_evaluations = 80;
  return options;
}

std::vector<std::string> all_techniques() {
  return pt::Registry::global().names();
}

void expect_same_cells(const sw::Result& a, const sw::Result& b) {
  ASSERT_EQ(a.cells.size(), b.cells.size());
  for (std::size_t i = 0; i < a.cells.size(); ++i) {
    const auto& ca = a.cells[i];
    const auto& cb = b.cells[i];
    EXPECT_EQ(ca.circuit, cb.circuit);
    EXPECT_EQ(ca.technique, cb.technique);
    EXPECT_EQ(ca.machine, cb.machine);
    EXPECT_EQ(ca.error, cb.error);
    EXPECT_EQ(ca.result.stats.cz_gates, cb.result.stats.cz_gates);
    EXPECT_EQ(ca.result.stats.swap_gates, cb.result.stats.swap_gates);
    EXPECT_EQ(ca.result.stats.layers, cb.result.stats.layers);
    EXPECT_EQ(ca.result.stats.trap_changes, cb.result.stats.trap_changes);
    EXPECT_EQ(ca.result.runtime_us, cb.result.runtime_us);
    EXPECT_EQ(ca.success_probability, cb.success_probability);
    ASSERT_EQ(ca.result.topology.sites.size(), cb.result.topology.sites.size());
    for (std::size_t s = 0; s < ca.result.topology.sites.size(); ++s) {
      EXPECT_EQ(ca.result.topology.sites[s], cb.result.topology.sites[s]);
    }
  }
}

}  // namespace

TEST(Sweep, ThreadCountInvariant) {
  // The acceptance criterion: a sweep's stats are identical whatever the
  // thread count — cell results depend only on (circuit, technique,
  // machine, options).
  const auto config = ph::HardwareConfig::quera_aquila_256();
  auto options = fast_sweep_options();
  options.n_threads = 1;
  const auto serial = sw::run(small_circuits(), all_techniques(),
                              {{config.name, config}}, options);
  options.n_threads = 4;
  const auto threaded = sw::run(small_circuits(), all_techniques(),
                                {{config.name, config}}, options);
  EXPECT_EQ(serial.threads_used, 1u);
  EXPECT_EQ(threaded.threads_used, 4u);
  expect_same_cells(serial, threaded);
}

TEST(Sweep, MatchesSequentialSingleCircuitCompilation) {
  // A sweep cell must equal compiling that (circuit, technique, machine)
  // alone with the same options — memoized placements and shared
  // transpilation change wall time, never results.
  const auto config = ph::HardwareConfig::quera_aquila_256();
  auto options = fast_sweep_options();
  options.n_threads = 4;
  const auto circuits = small_circuits();
  const auto swept = sw::run(circuits, all_techniques(),
                             {{config.name, config}}, options);
  for (const auto& cell : swept.cells) {
    ASSERT_TRUE(cell.ok()) << cell.technique << ": " << cell.error;
    const auto& spec = circuits[cell.circuit_index];
    const auto direct =
        pt::compile(cell.technique, spec.circuit, config, options.compile);
    EXPECT_EQ(cell.result.stats.cz_gates, direct.stats.cz_gates);
    EXPECT_EQ(cell.result.stats.swap_gates, direct.stats.swap_gates);
    EXPECT_EQ(cell.result.stats.layers, direct.stats.layers);
    EXPECT_EQ(cell.result.stats.trap_changes, direct.stats.trap_changes);
    EXPECT_EQ(cell.result.runtime_us, direct.runtime_us);
    ASSERT_EQ(cell.result.topology.sites.size(),
              direct.topology.sites.size());
    for (std::size_t s = 0; s < direct.topology.sites.size(); ++s) {
      EXPECT_EQ(cell.result.topology.sites[s], direct.topology.sites[s])
          << cell.circuit << "/" << cell.technique << " site " << s;
    }
  }
}

TEST(Sweep, PlacementMemoizedAcrossTechniquesAndMachines) {
  // parallax and graphine share Step 1; with two machines, four cells per
  // circuit need the placement but only one computes it.
  const auto quera = ph::HardwareConfig::quera_aquila_256();
  const auto atom = ph::HardwareConfig::atom_computing_1225();
  auto options = fast_sweep_options();
  const auto circuits = small_circuits();
  const auto swept = sw::run(circuits, {"parallax", "graphine"},
                             {{"quera", quera}, {"atom", atom}}, options);
  for (const auto& cell : swept.cells) {
    EXPECT_TRUE(cell.ok()) << cell.error;
  }
  EXPECT_EQ(swept.placement_cache_misses, circuits.size());
  EXPECT_EQ(swept.placement_cache_hits, 3 * circuits.size());
}

namespace {

/// The built-ins plus `name`: technique `base` with `tune` applied to its
/// options.
pt::Registry with_tuned_variant(const std::string& name,
                                const std::string& base,
                                pt::Registry::Tune tune) {
  pt::Registry registry = pt::Registry::with_builtins();
  registry.add(name, base + " with tuned options", registry.info(base).factory,
               std::move(tune));
  return registry;
}

}  // namespace

TEST(Sweep, MemoKeysOnTunedPlacementOptions) {
  // A tuned variant that gives one technique different placement options
  // must not be served another technique's memoized placement.
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const auto registry = with_tuned_variant(
      "graphine-60", "graphine", [](pp::CompileOptions& compile) {
        compile.placement.anneal_iterations = 60;
      });
  const auto circuits = small_circuits();
  const auto swept = sw::run(circuits, {"parallax", "graphine-60"},
                             {{config.name, config}}, fast_sweep_options(),
                             registry);
  EXPECT_EQ(swept.placement_cache_misses, 2 * circuits.size());
  EXPECT_EQ(swept.placement_cache_hits, 0u);
}

TEST(Sweep, TranspileMemoKeysOnTunedOptions) {
  // A tuned variant disables CZ-pair cancellation; its cells must get the
  // uncancelled circuit, not another cell's memoized one.
  pc::Circuit c(2, "czpair");
  c.cz(0, 1);
  c.cz(0, 1);
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const auto registry = with_tuned_variant(
      "static-uncancelled", "static", [](pp::CompileOptions& compile) {
        compile.transpile.cancel_cz_pairs = false;
      });
  const auto swept =
      sw::run({{"czpair", c}}, {"eldi", "static-uncancelled"},
              {{config.name, config}}, fast_sweep_options(), registry);
  EXPECT_EQ(swept.at("czpair", "eldi").result.stats.cz_gates, 0u);
  EXPECT_EQ(swept.at("czpair", "static-uncancelled").result.stats.cz_gates,
            2u);
  EXPECT_EQ(swept.transpile_cache_misses, 2u);
  EXPECT_EQ(swept.transpile_cache_hits, 0u);
}

TEST(Sweep, PlacementMemoKeysOnEffectiveInputCircuit) {
  // Techniques whose transpile options diverge may see different circuits,
  // so their Step-1 placements must not be shared unless the transpiled
  // circuits are identical — each cell still has to equal its own direct
  // compilation.
  const auto config = ph::HardwareConfig::quera_aquila_256();
  auto options = fast_sweep_options();
  const auto registry = with_tuned_variant(
      "graphine-unfused", "graphine", [](pp::CompileOptions& compile) {
        compile.transpile.fuse_single_qubit = false;
      });
  const auto circuits = small_circuits();
  const auto swept = sw::run(circuits, {"parallax", "graphine-unfused"},
                             {{config.name, config}}, options, registry);
  // The memo keys on content: a circuit whose two transpilations come out
  // byte-identical (ring6 is CZ-only, so fusion has nothing to fuse) is
  // placed once; every other circuit is placed once per transpilation.
  std::size_t distinct_inputs = 0;
  for (const auto& spec : circuits) {
    auto unfused = options.compile.transpile;
    unfused.fuse_single_qubit = false;
    distinct_inputs +=
        pcache::fingerprint(pc::transpile(spec.circuit,
                                          options.compile.transpile)) ==
                pcache::fingerprint(pc::transpile(spec.circuit, unfused))
            ? 1
            : 2;
  }
  ASSERT_LT(distinct_inputs, 2 * circuits.size());  // ring6 is shared
  EXPECT_EQ(swept.placement_cache_misses, distinct_inputs);
  EXPECT_EQ(swept.placement_cache_hits, 2 * circuits.size() - distinct_inputs);
  for (const auto& cell : swept.cells) {
    ASSERT_TRUE(cell.ok()) << cell.error;
    const auto direct = registry.compile(cell.technique,
                                         circuits[cell.circuit_index].circuit,
                                         config, options.compile);
    EXPECT_EQ(cell.result.runtime_us, direct.runtime_us)
        << cell.circuit << "/" << cell.technique;
    EXPECT_EQ(cell.result.stats.layers, direct.stats.layers);
  }
}

TEST(Sweep, AtRequiresMachineLabelOnMultiMachineSweep) {
  const auto quera = ph::HardwareConfig::quera_aquila_256();
  const auto atom = ph::HardwareConfig::atom_computing_1225();
  const auto swept = sw::run({{"ghz8", ghz(8, "ghz8")}}, {"static"},
                             {{"quera", quera}, {"atom", atom}},
                             fast_sweep_options());
  EXPECT_THROW((void)swept.at("ghz8", "static"), std::logic_error);
  EXPECT_EQ(swept.at("ghz8", "static", "atom").machine, "atom");
}

TEST(Sweep, UnknownTechniqueThrowsUpFront) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  EXPECT_THROW((void)sw::run(small_circuits(), {"parallax", "nope"},
                             {{config.name, config}}),
               pt::UnknownTechniqueError);
}

TEST(Sweep, OversizedCellReportsErrorOthersComplete) {
  auto tiny = ph::HardwareConfig::quera_aquila_256();
  tiny.grid_side = 2;  // 4 atoms
  tiny.name = "tiny4";
  const auto quera = ph::HardwareConfig::quera_aquila_256();
  const auto swept = sw::run(small_circuits(), {"eldi"},
                             {{"tiny4", tiny}, {"quera", quera}},
                             fast_sweep_options());
  for (const auto& cell : swept.cells) {
    if (cell.machine == "tiny4") {
      EXPECT_FALSE(cell.ok()) << cell.circuit;
      EXPECT_NE(cell.error.find("atoms"), std::string::npos);
    } else {
      EXPECT_TRUE(cell.ok()) << cell.circuit << ": " << cell.error;
    }
  }
}

TEST(Sweep, AtLookupAndMissing) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const auto swept = sw::run(small_circuits(), {"static"},
                             {{config.name, config}}, fast_sweep_options());
  const auto& cell = swept.at("ghz8", "static");
  EXPECT_EQ(cell.circuit, "ghz8");
  EXPECT_EQ(cell.technique, "static");
  EXPECT_THROW((void)swept.at("ghz8", "parallax"), std::out_of_range);
  EXPECT_THROW((void)swept.at("nope", "static"), std::out_of_range);
}

TEST(Sweep, ShotPlansWhenRequested) {
  const auto config = ph::HardwareConfig::atom_computing_1225();
  auto options = fast_sweep_options();
  options.compile.discretize.spread_factor = 1.2;
  options.shots = parallax::shots::ShotOptions{};
  const auto swept = sw::run({{"ghz8", ghz(8, "ghz8")}}, {"parallax"},
                             {{config.name, config}}, options);
  const auto& cell = swept.at("ghz8", "parallax");
  ASSERT_TRUE(cell.ok()) << cell.error;
  ASSERT_FALSE(cell.shot_plans.empty());
  EXPECT_EQ(cell.shot_plans.front().copies_per_dim, 1);
  // More copies never slow the total down.
  for (std::size_t i = 1; i < cell.shot_plans.size(); ++i) {
    EXPECT_LE(cell.shot_plans[i].total_execution_time_us,
              cell.shot_plans[i - 1].total_execution_time_us);
  }
}

TEST(Sweep, BenchmarkCircuitHelpers) {
  parallax::bench_circuits::GenOptions gen;
  gen.seed = 42;
  const auto specs = sw::benchmark_circuits({"QAOA", "QFT"}, gen);
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].name, "QAOA");
  EXPECT_GT(specs[0].circuit.size(), 0u);
  EXPECT_EQ(sw::all_benchmark_circuits(gen).size(), 18u);
  EXPECT_THROW((void)sw::benchmark_circuits({"NOPE"}, gen),
               std::invalid_argument);
}

// --- the cache handle's transpile map -----------------------------------------

namespace {

std::shared_ptr<pcache::CompilationCache> memory_cache() {
  return pcache::CompilationCache::open({.directory = "", .disk = false});
}

}  // namespace

TEST(SweepTranspileMap, AWarmSweepOnTheSameHandleTranspilesNothing) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const std::vector<std::string> techniques = {"parallax", "eldi", "static"};
  const auto circuits = small_circuits();
  auto options = fast_sweep_options();
  options.cache = memory_cache();
  const auto cold =
      sw::run(circuits, techniques, {{config.name, config}}, options);
  EXPECT_EQ(cold.transpile_cache_misses, circuits.size());
  EXPECT_EQ(cold.result_cache_misses, cold.cells.size());

  const auto warm =
      sw::run(circuits, techniques, {{config.name, config}}, options);
  EXPECT_EQ(warm.transpile_cache_misses, 0u);
  EXPECT_EQ(warm.transpile_cache_hits, 0u);
  EXPECT_EQ(warm.result_cache_hits, warm.cells.size());
  EXPECT_EQ(warm.result_cache_misses, 0u);
  EXPECT_EQ(sh::canonical_bytes(warm), sh::canonical_bytes(cold));
  const pcache::CacheStats stats = options.cache->stats();
  EXPECT_EQ(stats.transpiles_run, circuits.size());
  EXPECT_EQ(stats.transpiles_skipped, circuits.size());
}

TEST(SweepTranspileMap, AFreshHandleOnTheSameDirectoryTranspilesAgain) {
  // The map lives in memory only: a new handle (a new process) transpiles
  // once per circuit, and still serves every result from the disk tier.
  const std::string dir = ::testing::TempDir() + "parallax_transpile_map_" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const auto circuits = small_circuits();
  auto options = fast_sweep_options();
  options.cache = pcache::CompilationCache::open({.directory = dir});
  const auto cold =
      sw::run(circuits, {"parallax", "static"}, {{config.name, config}},
              options);

  options.cache = pcache::CompilationCache::open({.directory = dir});
  const auto warm =
      sw::run(circuits, {"parallax", "static"}, {{config.name, config}},
              options);
  EXPECT_EQ(warm.transpile_cache_misses, circuits.size());
  EXPECT_EQ(warm.result_cache_hits, warm.cells.size());
  EXPECT_EQ(sh::canonical_bytes(warm), sh::canonical_bytes(cold));
  EXPECT_EQ(options.cache->stats().transpiles_run, circuits.size());
  EXPECT_EQ(options.cache->stats().transpiles_skipped, 0u);
  std::filesystem::remove_all(dir);
}

TEST(SweepTranspileMap, AResultMissAfterAMapHitTranspilesOncePerCircuit) {
  // Another machine misses every result key but not the map: the cells
  // that compile share one transpile per circuit and equal a cacheless
  // sweep byte for byte.
  const auto quera = ph::HardwareConfig::quera_aquila_256();
  const auto atom = ph::HardwareConfig::atom_computing_1225();
  const std::vector<std::string> techniques = {"parallax", "eldi", "static"};
  const auto circuits = small_circuits();
  auto options = fast_sweep_options();
  options.cache = memory_cache();
  (void)sw::run(circuits, techniques, {{quera.name, quera}}, options);

  const auto other =
      sw::run(circuits, techniques, {{atom.name, atom}}, options);
  EXPECT_EQ(other.result_cache_misses, other.cells.size());
  EXPECT_EQ(other.transpile_cache_misses, circuits.size());
  EXPECT_EQ(other.transpile_cache_hits, other.cells.size() - circuits.size());
  EXPECT_EQ(options.cache->stats().transpiles_skipped, circuits.size());
  const auto reference = sw::run(circuits, techniques, {{atom.name, atom}},
                                 fast_sweep_options());
  EXPECT_EQ(sh::canonical_bytes(other), sh::canonical_bytes(reference));
  // One cell per circuit paid for the transpile and reports it; the rest
  // mark their transpile row as shared.
  std::vector<int> paid(circuits.size(), 0);
  for (const auto& cell : other.cells) {
    ASSERT_TRUE(cell.ok()) << cell.error;
    ASSERT_FALSE(cell.result.pass_timings.empty());
    const auto& row = cell.result.pass_timings.front();
    ASSERT_EQ(row.pass, "transpile");
    if (!row.cached) ++paid[cell.circuit_index];
  }
  EXPECT_EQ(paid, std::vector<int>(circuits.size(), 1));
}

TEST(SweepTranspileMap, KeysOnTunedTranspileOptionsAcrossSweeps) {
  // As TranspileMemoKeysOnTunedOptions, but across two sweeps on one
  // handle: the eldi sweep's map entry must not serve the uncancelled
  // variant its cancelled circuit.
  pc::Circuit c(2, "czpair");
  c.cz(0, 1);
  c.cz(0, 1);
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const auto registry = with_tuned_variant(
      "static-uncancelled", "static", [](pp::CompileOptions& compile) {
        compile.transpile.cancel_cz_pairs = false;
      });
  auto options = fast_sweep_options();
  options.cache = memory_cache();
  const auto eldi = sw::run({{"czpair", c}}, {"eldi"},
                            {{config.name, config}}, options, registry);
  EXPECT_EQ(eldi.at("czpair", "eldi").result.stats.cz_gates, 0u);
  const auto uncancelled =
      sw::run({{"czpair", c}}, {"static-uncancelled"},
              {{config.name, config}}, options, registry);
  EXPECT_EQ(
      uncancelled.at("czpair", "static-uncancelled").result.stats.cz_gates,
      2u);
  EXPECT_EQ(uncancelled.transpile_cache_misses, 1u);
  EXPECT_EQ(options.cache->stats().transpiles_run, 2u);
  EXPECT_EQ(options.cache->stats().transpiles_skipped, 0u);
}

TEST(SweepTranspileMap, RecordsTheTranspiledFingerprintOfEveryTableIIICircuit) {
  // A transpile-only technique keeps the sweep cheap; what the map records
  // for each Table III circuit must be the fingerprint a direct transpile
  // gives.
  pt::Registry registry;
  registry.add("transpile-only", "the transpile pass alone",
               [](const pp::CompileOptions&) {
                 pp::Pipeline pipeline("transpile-only");
                 pipeline.add(pp::passes::transpile());
                 return pipeline;
               });
  const auto config = ph::HardwareConfig::quera_aquila_256();
  sw::Options options;
  options.compute_success_probability = false;
  options.cache = memory_cache();
  const auto circuits = sw::all_benchmark_circuits();
  const auto swept = sw::run(circuits, {"transpile-only"},
                             {{config.name, config}}, options, registry);
  for (const auto& cell : swept.cells) ASSERT_TRUE(cell.ok()) << cell.error;
  for (const auto& spec : circuits) {
    const auto& transpile = options.compile.transpile;
    const auto recorded = options.cache->find_transpiled(
        pcache::transpiled_input_key(spec.circuit, transpile));
    ASSERT_TRUE(recorded.has_value()) << spec.name;
    EXPECT_EQ(*recorded,
              pcache::fingerprint(pc::transpile(spec.circuit, transpile)))
        << spec.name;
  }
}
