// Shard-layer tests. The heart is the differential harness: for N in
// {1, 2, 3, 7}, plan -> run each shard -> merge must produce canonical
// bytes identical to the single-process sweep::run over the same spec —
// cold, and with shards sharing one warm cache directory (where the
// campaign also performs zero duplicate anneals). Around it: partition
// properties, spec/run serialization round trips, property/fuzz corruption
// rejection, merge integrity errors (duplicate/missing/conflicting/mixed),
// and provenance preservation.
#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "cache/fingerprint.hpp"
#include "hardware/config.hpp"
#include "placement/graphine.hpp"
#include "shard/shard.hpp"
#include "shard/spec.hpp"
#include "sweep/sweep.hpp"

#include "mutation.hpp"

namespace fs = std::filesystem;
namespace pc = parallax::cache;
namespace pcir = parallax::circuit;
namespace ph = parallax::hardware;
namespace ppl = parallax::placement;
namespace sh = parallax::shard;
namespace sw = parallax::sweep;

namespace {

std::string fresh_dir(const std::string& tag) {
  static int counter = 0;
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("parallax_shard_" + tag + "_" +
                        std::to_string(::getpid()) + "_" +
                        std::to_string(counter++));
  fs::remove_all(dir);
  return dir.string();
}

pcir::Circuit ghz(std::int32_t n, const std::string& name) {
  pcir::Circuit c(n, name);
  c.h(0);
  for (std::int32_t q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  c.measure_all();
  return c;
}

pcir::Circuit ring(std::int32_t n, const std::string& name) {
  pcir::Circuit c(n, name);
  for (std::int32_t q = 0; q < n; ++q) c.cz(q, (q + 1) % n);
  return c;
}

sh::SweepSpec small_spec() {
  sh::SweepSpec spec;
  spec.circuits = {{"ghz8", ghz(8, "ghz8")},
                   {"ring6", ring(6, "ring6")},
                   {"ghz5", ghz(5, "ghz5")}};
  spec.techniques = {"parallax", "static"};
  const auto config = ph::HardwareConfig::quera_aquila_256();
  spec.machines = {{config.name, config}};
  spec.options.compile.placement.anneal_iterations = 120;
  spec.options.compile.placement.local_search_evaluations = 80;
  return spec;
}

/// Runs every shard of `plan` (fresh cache instance per shard when `dir` is
/// non-empty, modeling separate processes over one shared directory) and
/// returns the runs.
std::vector<sh::ShardRun> run_plan(const std::vector<sh::ShardSpec>& plan,
                                   const std::string& dir = {}) {
  std::vector<sh::ShardRun> runs;
  for (const auto& shard : plan) {
    sh::RunnerOptions runner;
    if (!dir.empty()) {
      runner.cache = pc::CompilationCache::open({.directory = dir});
    }
    runs.push_back(sh::run_shard(shard, runner));
  }
  return runs;
}

}  // namespace

// --- partition ----------------------------------------------------------------

TEST(ShardPartition, RangesCoverFlatIndexSpaceExactlyOnce) {
  for (const std::size_t total : {0u, 1u, 5u, 6u, 7u, 24u, 100u}) {
    for (const std::uint32_t count : {1u, 2u, 3u, 7u, 16u}) {
      std::vector<int> covered(total, 0);
      std::size_t previous_end = 0;
      for (std::uint32_t index = 0; index < count; ++index) {
        const auto range = sh::shard_cell_range(total, count, index);
        EXPECT_EQ(range.begin, previous_end);  // contiguous, in order
        EXPECT_LE(range.end, total);
        // Balanced: sizes differ by at most one cell.
        EXPECT_LE(range.size(), total / count + 1);
        for (std::size_t flat = range.begin; flat < range.end; ++flat) {
          ++covered[flat];
        }
        previous_end = range.end;
      }
      EXPECT_EQ(previous_end, total);
      for (const int n : covered) EXPECT_EQ(n, 1);
    }
  }
  EXPECT_THROW((void)sh::shard_cell_range(10, 0, 0), sh::ShardError);
  EXPECT_THROW((void)sh::shard_cell_range(10, 3, 3), sh::ShardError);
}

TEST(ShardPlan, ValidatesUpFront) {
  auto spec = small_spec();
  EXPECT_EQ(sh::plan(spec, 4).size(), 4u);
  EXPECT_THROW((void)sh::plan(spec, 0), sh::ShardError);
  auto unknown = spec;
  unknown.techniques.push_back("nope");
  EXPECT_THROW((void)sh::plan(unknown, 2),
               parallax::technique::UnknownTechniqueError);
  auto empty = spec;
  empty.circuits.clear();
  EXPECT_THROW((void)sh::plan(empty, 2), sh::ShardError);
}

// --- the differential harness -------------------------------------------------

TEST(ShardDifferential, MergedRunsAreByteIdenticalToUnshardedSweep) {
  const auto spec = small_spec();
  const auto unsharded = sw::run(spec.circuits, spec.techniques,
                                 spec.machines, spec.options);
  const std::string expected = sh::canonical_bytes(unsharded);
  ASSERT_FALSE(expected.empty());
  for (const std::uint32_t n : {1u, 2u, 3u, 7u}) {
    const auto merged = sh::merge(run_plan(sh::plan(spec, n)));
    EXPECT_EQ(sh::canonical_bytes(merged), expected) << n << " shards";
    ASSERT_EQ(merged.cells.size(), unsharded.cells.size()) << n << " shards";
    for (std::size_t i = 0; i < merged.cells.size(); ++i) {
      EXPECT_FALSE(merged.cells[i].skipped);
      EXPECT_TRUE(merged.cells[i].ok()) << merged.cells[i].error;
    }
  }
}

TEST(ShardDifferential, SharedCacheDirectoryNeverDuplicatesAnAnneal) {
  const auto spec = small_spec();
  // Reference: the unsharded run's anneal count over a cold cache.
  const std::string reference_dir = fresh_dir("reference");
  sw::Options options = spec.options;
  options.cache = pc::CompilationCache::open({.directory = reference_dir});
  const std::uint64_t before_unsharded = ppl::annealing_invocations();
  const auto unsharded = sw::run(spec.circuits, spec.techniques,
                                 spec.machines, options);
  const std::uint64_t unsharded_anneals =
      ppl::annealing_invocations() - before_unsharded;
  ASSERT_GT(unsharded_anneals, 0u);

  // Cold campaign: every shard is a separate "process" (fresh cache
  // instance) against one shared directory. Total anneals must equal the
  // unsharded count — no placement is ever annealed twice.
  const std::string dir = fresh_dir("campaign");
  const auto plan = sh::plan(spec, 3);
  const auto cold_runs = run_plan(plan, dir);
  std::uint64_t campaign_anneals = 0;
  for (const auto& run : cold_runs) campaign_anneals += run.anneals;
  EXPECT_EQ(campaign_anneals, unsharded_anneals);
  EXPECT_EQ(sh::canonical_bytes(sh::merge(cold_runs)),
            sh::canonical_bytes(unsharded));

  // Warm campaign over the same directory: zero anneals, every cell a
  // result hit, still byte-identical.
  const auto warm_runs = run_plan(plan, dir);
  std::uint64_t warm_anneals = 0;
  std::uint64_t warm_hits = 0;
  for (const auto& run : warm_runs) {
    warm_anneals += run.anneals;
    warm_hits += run.result_cache_hits;
    for (const auto& cell : run.cells) EXPECT_TRUE(cell.from_cache);
  }
  EXPECT_EQ(warm_anneals, 0u);
  EXPECT_EQ(warm_hits, unsharded.cells.size());
  EXPECT_EQ(sh::canonical_bytes(sh::merge(warm_runs)),
            sh::canonical_bytes(unsharded));
}

TEST(ShardDifferential, CrossShardPlacementsComeFromTheSharedDiskTier) {
  // parallax and graphine share Step 1. With one cell per shard, the two
  // cells of each circuit land on different "processes" — the only way the
  // campaign can avoid re-annealing is through the shared cache directory.
  auto spec = small_spec();
  spec.techniques = {"parallax", "graphine"};
  const std::string dir = fresh_dir("cross");
  const auto runs = run_plan(sh::plan(spec, 6), dir);
  std::uint64_t anneals = 0;
  std::uint64_t disk_hits = 0;
  for (const auto& run : runs) {
    ASSERT_EQ(run.cells.size(), 1u);
    anneals += run.anneals;
    disk_hits += run.placement_disk_hits;
  }
  EXPECT_EQ(anneals, spec.circuits.size());   // one anneal per circuit
  EXPECT_EQ(disk_hits, spec.circuits.size()); // the partner cell loads it
  EXPECT_EQ(sh::canonical_bytes(sh::merge(runs)),
            sh::canonical_bytes(sw::run(spec.circuits, spec.techniques,
                                        spec.machines, spec.options)));
}

TEST(ShardDifferential, FileRoundTripPreservesByteIdentity) {
  // The full CLI-shaped path: plan -> serialize specs -> parse -> run ->
  // serialize runs -> parse -> merge.
  const auto spec = small_spec();
  const std::string expected = sh::canonical_bytes(
      sw::run(spec.circuits, spec.techniques, spec.machines, spec.options));
  std::vector<sh::ShardRun> runs;
  for (const auto& shard : sh::plan(spec, 2)) {
    const sh::ShardSpec parsed =
        sh::parse_shard_spec(sh::serialize_shard_spec(shard));
    EXPECT_EQ(sh::spec_digest(parsed.sweep), sh::spec_digest(shard.sweep));
    const sh::ShardRun run = sh::run_shard(parsed);
    runs.push_back(sh::parse_shard_run(sh::serialize_shard_run(run)));
  }
  EXPECT_EQ(sh::canonical_bytes(sh::merge(runs)), expected);
}

// --- provenance ---------------------------------------------------------------

TEST(ShardProvenance, ErrorCellsCarryOriginThroughMerge) {
  // A machine too small for some circuits forces error cells; the merged
  // result must say which shard produced each one.
  auto spec = small_spec();
  auto tiny = ph::HardwareConfig::quera_aquila_256();
  tiny.grid_side = 2;  // 4 atoms: ghz8/ring6/ghz5 all fail, nothing fits
  tiny.name = "tiny4";
  spec.machines = {{"tiny4", tiny}};
  spec.techniques = {"static"};

  std::vector<sh::ShardRun> runs;
  for (const auto& shard : sh::plan(spec, 3)) {
    sh::RunnerOptions runner;
    runner.provenance = "host-" + std::to_string(shard.shard_index);
    runs.push_back(sh::run_shard(shard, runner));
  }
  const auto merged = sh::merge(runs);
  ASSERT_EQ(merged.cells.size(), 3u);
  for (const auto& cell : merged.cells) {
    EXPECT_FALSE(cell.ok());
    EXPECT_EQ(cell.origin, "host-" + std::to_string(cell.circuit_index));
  }
  // And through the file round trip.
  const auto reparsed = sh::parse_shard_run(sh::serialize_shard_run(runs[1]));
  ASSERT_EQ(reparsed.cells.size(), 1u);
  EXPECT_EQ(reparsed.cells[0].origin, "host-1");
  EXPECT_EQ(reparsed.cells[0].error, runs[1].cells[0].error);
}

TEST(ShardProvenance, DefaultOriginNamesShardAndHost) {
  auto spec = small_spec();
  spec.circuits = {{"ghz5", ghz(5, "ghz5")}};
  spec.techniques = {"static"};
  const auto runs = run_plan(sh::plan(spec, 1));
  ASSERT_EQ(runs[0].cells.size(), 1u);
  EXPECT_EQ(runs[0].cells[0].origin.find("shard-0/1@"), 0u)
      << runs[0].cells[0].origin;
  // Provenance is execution metadata: it must not leak into the canonical
  // bytes, or two hosts could never produce identical campaigns.
  sh::RunnerOptions renamed;
  renamed.provenance = "elsewhere";
  const auto other = sh::run_shard(sh::plan(spec, 1)[0], renamed);
  EXPECT_EQ(sh::canonical_bytes(sh::merge(runs)),
            sh::canonical_bytes(sh::merge({other})));
}

TEST(ShardProvenance, SweepStampsProvenanceOnCells) {
  auto spec = small_spec();
  auto options = spec.options;
  options.provenance = "unit-test";
  const auto swept =
      sw::run(spec.circuits, spec.techniques, spec.machines, options);
  for (const auto& cell : swept.cells) EXPECT_EQ(cell.origin, "unit-test");
}

// --- merge integrity ----------------------------------------------------------

TEST(ShardMerge, DetectsDuplicateMissingConflictingAndMixedRuns) {
  const auto spec = small_spec();
  const auto plan = sh::plan(spec, 3);
  const auto runs = run_plan(plan);

  // Missing: a shard's output was lost.
  try {
    (void)sh::merge({runs[0], runs[2]});
    FAIL() << "expected ShardError";
  } catch (const sh::ShardError& error) {
    EXPECT_NE(std::string(error.what()).find("missing"), std::string::npos);
  }

  // Duplicate: the same shard submitted twice.
  try {
    (void)sh::merge({runs[0], runs[0], runs[1], runs[2]});
    FAIL() << "expected ShardError";
  } catch (const sh::ShardError& error) {
    EXPECT_NE(std::string(error.what()).find("duplicate"), std::string::npos);
  }

  // Conflicting: same cell, different content — a determinism violation
  // that must never be silently resolved.
  auto tampered = runs;
  tampered[0].cells[0].result.runtime_us += 1.0;
  try {
    (void)sh::merge({runs[0], tampered[0], runs[1], runs[2]});
    FAIL() << "expected ShardError";
  } catch (const sh::ShardError& error) {
    EXPECT_NE(std::string(error.what()).find("conflicting"),
              std::string::npos);
  }

  // Mixed plans / specs.
  auto other_spec = spec;
  other_spec.options.compile.seed ^= 1;
  const auto other_runs = run_plan(sh::plan(other_spec, 3));
  EXPECT_THROW((void)sh::merge({runs[0], other_runs[1], runs[2]}),
               sh::ShardError);
  auto recount = runs[1];
  recount.shard_count = 5;
  EXPECT_THROW((void)sh::merge({runs[0], recount, runs[2]}), sh::ShardError);
  EXPECT_THROW((void)sh::merge({}), sh::ShardError);
}

TEST(ShardMerge, RejectsImplausibleMatrixDimensions) {
  // The frame checksum is integrity, not security: a crafted run file with
  // absurd dimensions must get a clean ShardError, never a wrapped multiply
  // indexing out of bounds or a terabyte allocation.
  auto spec = small_spec();
  spec.circuits = {{"ghz5", ghz(5, "ghz5")}};
  spec.techniques = {"static"};
  auto run = run_plan(sh::plan(spec, 1))[0];
  auto crafted = run;
  crafted.n_circuits = 1ull << 62;  // wraps total to 0 if multiplied blindly
  crafted.n_techniques = 4;
  crafted.cells[0].circuit_index = 1;
  EXPECT_THROW((void)sh::merge({crafted}), sh::ShardError);
  EXPECT_THROW((void)sh::parse_shard_run(sh::serialize_shard_run(crafted)),
               sh::ShardError);
  auto zero_axis = run;
  zero_axis.n_machines = 0;
  EXPECT_THROW((void)sh::merge({zero_axis}), sh::ShardError);
  auto huge = run;
  huge.n_circuits = 1ull << 20;  // no overflow, but a ~4TB cell vector
  huge.n_techniques = 1ull << 20;
  EXPECT_THROW((void)sh::merge({huge}), sh::ShardError);
  auto stray_cell = run;
  stray_cell.cells[0].machine_index = 7;
  EXPECT_THROW(
      (void)sh::parse_shard_run(sh::serialize_shard_run(stray_cell)),
      sh::ShardError);
}

namespace {

using parallax::fuzz::cap_address_space;

}  // namespace

TEST(ShardMerge, AnEmptyRunOfTheLargestMatrixIsMissingCellsNotMemory) {
  // A 168-byte run file that declares the largest matrix (2^24 cells) and
  // carries none. merge must report the first missing cell from the cells
  // it was given; sizing its output by the declared matrix would ask for
  // 2^24 sweep::Cells (about 9 GB). The probe runs in a child process
  // capped 1 GiB above its size, so an oversized allocation fails there
  // instead of touching memory.
  pc::Writer writer;
  writer.u64(0);  // spec digest
  writer.u64(0);
  writer.u32(0);                       // shard_index
  writer.u32(1);                       // shard_count
  writer.u64(std::uint64_t{1} << 24);  // n_circuits
  writer.u64(1);                       // n_techniques
  writer.u64(1);                       // n_machines
  writer.u64(0);                       // no cells
  for (int i = 0; i < 10; ++i) writer.u64(0);  // wall seconds and counters
  const std::string bytes =
      sh::frame_payload(sh::FileKind::kShardRun, writer.take());
  ASSERT_EQ(bytes.size(), 168u);
  EXPECT_EXIT(
      {
        if (!cap_address_space(std::uint64_t{1} << 30)) std::_Exit(2);
        try {
          (void)sh::merge({sh::parse_shard_run(bytes)});
        } catch (const sh::ShardError& error) {
          std::fprintf(stderr, "%s\n", error.what());
          std::_Exit(0);
        }
      },
      ::testing::ExitedWithCode(0),
      "missing cell in shard runs: circuit 0, technique 0, machine 0");
}

// --- serialization: property/fuzz round trips and corruption ------------------

namespace {

pcir::Circuit random_circuit(std::mt19937_64& rng, const std::string& name) {
  const std::int32_t n_qubits = 1 + static_cast<std::int32_t>(rng() % 6);
  pcir::Circuit circuit(n_qubits, name);
  std::uniform_real_distribution<double> angle(-6.3, 6.3);
  const std::size_t n_gates = rng() % 12;
  for (std::size_t i = 0; i < n_gates; ++i) {
    const std::int32_t q = static_cast<std::int32_t>(rng() % n_qubits);
    switch (rng() % 3) {
      case 0:
        circuit.u3(q, angle(rng), angle(rng), angle(rng));
        break;
      case 1:
        if (n_qubits > 1) {
          std::int32_t other = static_cast<std::int32_t>(rng() % n_qubits);
          if (other == q) other = (q + 1) % n_qubits;
          circuit.cz(q, other);
        }
        break;
      default:
        circuit.measure(q);
        break;
    }
  }
  return circuit;
}

sh::SweepSpec random_spec(std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  sh::SweepSpec spec;
  const std::size_t n_circuits = 1 + rng() % 3;
  for (std::size_t i = 0; i < n_circuits; ++i) {
    const std::string name = "c" + std::to_string(i);
    spec.circuits.push_back({name, random_circuit(rng, name)});
  }
  const std::size_t n_techniques = 1 + rng() % 3;
  for (std::size_t i = 0; i < n_techniques; ++i) {
    spec.techniques.push_back("technique-" + std::to_string(rng() % 100));
  }
  auto config = ph::HardwareConfig::quera_aquila_256();
  config.grid_side = 2 + static_cast<std::int32_t>(rng() % 40);
  config.cz_error = unit(rng);
  config.aod_speed_um_per_us = 1.0 + unit(rng) * 100.0;
  spec.machines = {{"m" + std::to_string(rng() % 10), config}};
  spec.options.compile.seed = rng();
  spec.options.compile.transpile.fuse_single_qubit = rng() % 2 == 0;
  spec.options.compile.transpile.identity_tolerance = unit(rng) * 1e-6;
  spec.options.compile.placement.anneal_iterations =
      static_cast<int>(rng() % 1000);
  spec.options.compile.placement.crowding_weight = unit(rng) * 20.0;
  spec.options.compile.placement.warm_start = rng() % 2 == 0;
  spec.options.compile.discretize.spread_factor = 1.0 + unit(rng) * 3.0;
  spec.options.compile.scheduler.return_home = rng() % 2 == 0;
  spec.options.compile.scheduler.shuffle_seed = rng();
  spec.options.compile.aod_selection.out_of_range_weight = unit(rng);
  spec.options.compile.assume_transpiled = rng() % 2 == 0;
  if (rng() % 3 == 0) {
    ppl::Topology topology;
    const std::size_t n = 1 + rng() % 5;
    for (std::size_t i = 0; i < n; ++i) {
      topology.positions.push_back({unit(rng), unit(rng)});
    }
    topology.interaction_radius = unit(rng);
    spec.options.compile.preset_topology = topology;
  }
  spec.options.compute_success_probability = rng() % 2 == 0;
  spec.options.noise.include_readout = rng() % 2 == 0;
  spec.options.noise.per_qubit_decoherence = rng() % 2 == 0;
  if (rng() % 2 == 0) {
    parallax::shots::ShotOptions shots;
    shots.logical_shots = 1 + static_cast<std::int64_t>(rng() % 100000);
    shots.inter_shot_overhead_us = unit(rng) * 100.0;
    spec.options.shots = shots;
  }
  auto& placement = spec.options.compile.placement;
  placement.proposal = rng() % 2 == 0 ? ppl::ProposalMode::kBatched
                                      : ppl::ProposalMode::kFullVector;
  placement.chains = 1 + static_cast<int>(rng() % 4);
  placement.max_window_qubits = static_cast<int>(rng() % 3) * 32;
  placement.portfolio_entrants = static_cast<int>(rng() % 5);
  auto& fidelity = spec.options.compile.fidelity;
  if (rng() % 2 == 0) {
    fidelity.model = parallax::noise::FidelityModel::kSimulated;
  }
  fidelity.shots = 1 + static_cast<std::int64_t>(rng() % 10000);
  return spec;
}

/// Parsing corrupted bytes must throw one of the two documented exception
/// types — no crash, no silent acceptance.
template <typename Parse>
void expect_rejected(const Parse& parse, const std::string& bytes) {
  try {
    parse(bytes);
    FAIL() << "corrupted input was accepted";
  } catch (const pc::ReadError&) {
  } catch (const sh::ShardError&) {
  }
}

}  // namespace

TEST(ShardSpecFuzz, RandomSpecsRoundTripExactly) {
  for (std::uint64_t seed = 0; seed < 25; ++seed) {
    const auto spec = random_spec(seed);
    sh::ShardSpec shard{spec,
                        static_cast<std::uint32_t>(seed % 3),
                        static_cast<std::uint32_t>(3)};
    const std::string bytes = sh::serialize_shard_spec(shard);
    const sh::ShardSpec parsed = sh::parse_shard_spec(bytes);
    // Serialization is a bijection on its image: re-encoding the parse
    // reproduces the bytes, so every field survived exactly.
    EXPECT_EQ(sh::serialize_shard_spec(parsed), bytes) << "seed " << seed;
    EXPECT_EQ(sh::spec_digest(parsed.sweep), sh::spec_digest(spec));
    EXPECT_EQ(parsed.shard_index, shard.shard_index);
    EXPECT_EQ(parsed.sweep.options.compile.seed, spec.options.compile.seed);
    // And the spec means what the options mean: a field the spec dropped
    // would key the parsed options differently.
    EXPECT_EQ(pc::fingerprint(parsed.sweep.options.compile),
              pc::fingerprint(spec.options.compile))
        << "seed " << seed;
  }
}

TEST(ShardSpecFuzz, OutOfRangeOptionValuesAreRejected) {
  // The writer encodes whatever the options hold; the reader refuses an
  // unknown enum, a chain count below 1, a negative window or portfolio
  // count, and an empty machine grid.
  const std::vector<std::pair<const char*, void (*)(sh::SweepSpec&)>> cases = {
      {"retired proposal mode",
       [](sh::SweepSpec& spec) {
         spec.options.compile.placement.proposal =
             static_cast<ppl::ProposalMode>(1);
       }},
      {"unknown fidelity model",
       [](sh::SweepSpec& spec) {
         spec.options.compile.fidelity.model =
             static_cast<parallax::noise::FidelityModel>(7);
       }},
      {"zero chains",
       [](sh::SweepSpec& spec) {
         spec.options.compile.placement.chains = 0;
       }},
      {"negative window",
       [](sh::SweepSpec& spec) {
         spec.options.compile.placement.max_window_qubits = -1;
       }},
      {"negative portfolio",
       [](sh::SweepSpec& spec) {
         spec.options.compile.placement.portfolio_entrants = -1;
       }},
      {"empty grid",
       [](sh::SweepSpec& spec) { spec.machines[0].config.grid_side = 0; }},
  };
  const auto spec = small_spec();
  (void)sh::parse_sweep_spec(sh::serialize_sweep_spec(spec));
  for (const auto& [name, breaks] : cases) {
    auto broken = spec;
    breaks(broken);
    EXPECT_THROW((void)sh::parse_sweep_spec(sh::serialize_sweep_spec(broken)),
                 pc::ReadError)
        << name;
  }
}

TEST(ShardSpecFuzz, TruncationsAndCorruptionsAreRejected) {
  const auto parse = [](const std::string& bytes) {
    (void)sh::parse_shard_spec(bytes);
  };
  const std::string bytes =
      sh::serialize_shard_spec(sh::ShardSpec{random_spec(7), 1, 4});
  std::mt19937_64 rng(0xF022);
  for (int i = 0; i < 60; ++i) {
    // Random truncation (including the empty prefix).
    expect_rejected(parse, bytes.substr(0, rng() % bytes.size()));
    // Random single-byte corruption.
    std::string corrupt = bytes;
    const std::size_t at = rng() % corrupt.size();
    corrupt[at] = static_cast<char>(corrupt[at] ^ (1 << (rng() % 8)));
    expect_rejected(parse, corrupt);
    // Random trailing garbage.
    expect_rejected(parse, bytes + static_cast<char>(rng() % 256));
  }
  // Wrong kind: a shard-run frame handed to the spec parser.
  expect_rejected(parse,
                  sh::frame_payload(sh::FileKind::kShardRun, "payload"));
}

TEST(SweepSpecFuzz, MutatedPayloadsDecodeOrThrowDocumentedErrors) {
  // Each mutant is re-framed with a valid checksum, so it reaches the
  // payload decoder itself rather than failing the frame check. The
  // contract: decode, or throw cache::ReadError / ShardError — never another
  // exception type, a crash, or a hang.
  auto spec = small_spec();
  spec.circuits.resize(2);
  const auto tally =
      parallax::fuzz::run_mutants<pc::ReadError, sh::ShardError>(
          sh::sweep_spec_payload(spec), 0x5EEDF022, 20000,
          [](const std::string& mutant) {
            (void)sh::parse_sweep_spec(
                sh::frame_payload(sh::FileKind::kSweepSpec, mutant));
          });
  for (const std::string& escape : tally.escapes) {
    ADD_FAILURE() << "outside the contract: " << escape;
  }
  EXPECT_GT(tally.decoded, 0u);
  EXPECT_GT(tally.rejected, 0u);
}

TEST(ShardRunFuzz, RunFilesRoundTripAndRejectCorruption) {
  auto spec = small_spec();
  spec.circuits = {{"ghz5", ghz(5, "ghz5")}, {"ring6", ring(6, "ring6")}};
  const auto runs = run_plan(sh::plan(spec, 2));
  for (const auto& run : runs) {
    const std::string bytes = sh::serialize_shard_run(run);
    const sh::ShardRun parsed = sh::parse_shard_run(bytes);
    EXPECT_EQ(sh::serialize_shard_run(parsed), bytes);
    EXPECT_EQ(parsed.anneals, run.anneals);
    EXPECT_EQ(parsed.wall_seconds, run.wall_seconds);
  }
  const auto parse = [](const std::string& bytes) {
    (void)sh::parse_shard_run(bytes);
  };
  const std::string bytes = sh::serialize_shard_run(runs[0]);
  std::mt19937_64 rng(0xBEEF);
  for (int i = 0; i < 40; ++i) {
    expect_rejected(parse, bytes.substr(0, rng() % bytes.size()));
    std::string corrupt = bytes;
    const std::size_t at = rng() % corrupt.size();
    corrupt[at] = static_cast<char>(corrupt[at] ^ (1 << (rng() % 8)));
    expect_rejected(parse, corrupt);
  }
}

TEST(ShardRunFuzz, CellCountIsBoundedByTheSmallestEncodedCell) {
  // A run file that declares the largest matrix and as many cells, backed
  // by one byte each. The count must fail against the minimum encoded cell
  // size before anything is reserved; a one-byte bound would reserve 2^24
  // in-memory cells (about 9 GB) for this 16 MB file.
  const std::uint64_t n_cells = std::uint64_t{1} << 24;
  pc::Writer writer;
  writer.u64(0);  // spec digest
  writer.u64(0);
  writer.u32(0);  // shard_index
  writer.u32(1);  // shard_count
  writer.u64(n_cells);  // n_circuits
  writer.u64(1);        // n_techniques
  writer.u64(1);        // n_machines
  writer.u64(n_cells);
  std::string payload = writer.take();
  payload.append(n_cells, '\0');
  EXPECT_THROW(
      (void)sh::parse_shard_run(sh::frame_payload(sh::FileKind::kShardRun,
                                                  payload)),
      pc::ReadError);
}

TEST(ShardRunFuzz, MutatedPayloadsDecodeOrThrowDocumentedErrors) {
  // Each mutant is re-framed with a valid checksum, so it reaches the
  // shard-run decoder itself. The contract: decode, or throw
  // cache::ReadError / ShardError.
  auto spec = small_spec();
  spec.circuits = {{"ghz5", ghz(5, "ghz5")}, {"ring6", ring(6, "ring6")}};
  const auto runs = run_plan(sh::plan(spec, 2));
  const std::string payload = sh::unframe_payload(
      sh::FileKind::kShardRun, sh::serialize_shard_run(runs[0]));
  const auto tally =
      parallax::fuzz::run_mutants<pc::ReadError, sh::ShardError>(
          payload, 0x5A4D7F22, 20000, [](const std::string& mutant) {
            (void)sh::parse_shard_run(
                sh::frame_payload(sh::FileKind::kShardRun, mutant));
          });
  for (const std::string& escape : tally.escapes) {
    ADD_FAILURE() << "outside the contract: " << escape;
  }
  EXPECT_GT(tally.decoded, 0u);
  EXPECT_GT(tally.rejected, 0u);
}

// --- sweep-level filter plumbing ----------------------------------------------

TEST(SweepCellFilter, SkipsUnownedCellsWithoutCompilingThem) {
  const auto spec = small_spec();
  auto options = spec.options;
  options.cell_filter = [](std::size_t flat) { return flat % 2 == 0; };
  const auto swept =
      sw::run(spec.circuits, spec.techniques, spec.machines, options);
  ASSERT_EQ(swept.cells.size(), 6u);
  for (std::size_t flat = 0; flat < swept.cells.size(); ++flat) {
    const auto& cell = swept.cells[flat];
    EXPECT_EQ(cell.skipped, flat % 2 != 0) << flat;
    // Labels are filled either way (merge and reporting need them)...
    EXPECT_FALSE(cell.circuit.empty());
    if (cell.skipped) {
      // ...but skipped cells did no work: no result, no error, no origin.
      EXPECT_EQ(cell.result.layers.size(), 0u);
      EXPECT_EQ(cell.compile_seconds, 0.0);
      EXPECT_TRUE(cell.origin.empty());
    }
  }
}
