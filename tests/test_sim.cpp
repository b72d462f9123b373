// Discrete-event simulator tests (src/sim): thread-count-invariant
// determinism, exact zero-noise timing against the scheduler's recorded
// durations, Monte Carlo convergence to the closed-form noise model with
// matched channels, the continuous-time event ledger catching corrupted
// schedules, and the sweep-level simulated-fidelity backend.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "bench_circuits/registry.hpp"
#include "circuit/circuit.hpp"
#include "hardware/config.hpp"
#include "noise/model.hpp"
#include "parallax/compiler.hpp"
#include "parallax/validate.hpp"
#include "sim/event.hpp"
#include "sim/simulator.hpp"
#include "sweep/sweep.hpp"
#include "technique/registry.hpp"
#include "util/rng.hpp"

namespace pb = parallax::bench_circuits;
namespace pc = parallax::circuit;
namespace ph = parallax::hardware;
namespace pn = parallax::noise;
namespace ps = parallax::sim;
namespace pt = parallax::technique;
namespace pu = parallax::util;
namespace px = parallax::compiler;

namespace {

px::CompilerOptions sim_options() {
  px::CompilerOptions options;
  options.placement.anneal_iterations = 150;
  options.placement.local_search_evaluations = 150;
  options.seed = 42;
  options.scheduler.record_positions = true;
  return options;
}

pc::Circuit ghz(std::int32_t n) {
  pc::Circuit c(n, "ghz");
  c.h(0);
  for (std::int32_t q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  c.measure_all();
  return c;
}

/// A compiled schedule with recorded positions, shared across tests.
const px::CompileResult& ghz_schedule() {
  static const px::CompileResult result = px::compile(
      ghz(8), ph::HardwareConfig::quera_aquila_256(), sim_options());
  return result;
}

pn::NoiseOptions no_noise() {
  pn::NoiseOptions off;
  off.include_gate_errors = false;
  off.include_decoherence = false;
  off.include_operation_overheads = false;
  return off;
}

}  // namespace

// --- determinism --------------------------------------------------------------

TEST(Sim, OutcomeDigestIsThreadCountInvariant) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  ps::SimOptions options;
  options.shots = 2048;
  options.seed = pu::derive_seed(42, "ghz", pu::kSimSeedSalt);

  options.n_threads = 1;
  const ps::SurvivalEstimate serial = ps::simulate(ghz_schedule(), config,
                                                   options);
  options.n_threads = 4;
  const ps::SurvivalEstimate pooled = ps::simulate(ghz_schedule(), config,
                                                   options);
  EXPECT_EQ(serial.outcome_digest, pooled.outcome_digest);
  EXPECT_EQ(serial.successes, pooled.successes);
  EXPECT_EQ(serial.failures, pooled.failures);

  options.n_threads = 0;  // hardware concurrency
  EXPECT_EQ(ps::simulate(ghz_schedule(), config, options).outcome_digest,
            serial.outcome_digest);
}

TEST(Sim, SeedAndShotCountChangeTheStream) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  ps::SimOptions options;
  options.shots = 512;
  const auto a = ps::simulate(ghz_schedule(), config, options);
  options.seed ^= 1;
  const auto b = ps::simulate(ghz_schedule(), config, options);
  EXPECT_NE(a.outcome_digest, b.outcome_digest);
}

// --- zero noise = exact timing ------------------------------------------------

TEST(Sim, ZeroNoiseAlwaysSucceeds) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  ps::SimOptions options;
  options.shots = 256;
  options.channels = no_noise();
  const ps::SurvivalEstimate estimate =
      ps::simulate(ghz_schedule(), config, options);
  EXPECT_EQ(estimate.successes, estimate.shots);
  EXPECT_EQ(estimate.mean(), 1.0);
  EXPECT_EQ(estimate.std_error(), 0.0);
}

TEST(Sim, TimelineReproducesSchedulerDurationsExactly) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const px::CompileResult& result = ghz_schedule();
  const ps::Timeline timeline = ps::build_timeline(result, config);
  ASSERT_EQ(timeline.layer_wall_us.size(), result.layers.size());
  for (std::size_t li = 0; li < result.layers.size(); ++li) {
    // Byte-exact: the timeline evaluates the scheduler's own duration
    // expression over the same recorded scalars, in the same order.
    EXPECT_EQ(timeline.layer_wall_us[li], result.layers[li].duration_us)
        << "layer " << li;
  }
  EXPECT_EQ(timeline.total_us, result.runtime_us);
}

// --- convergence to the closed-form model -------------------------------------

namespace {

/// Compiles `name` from the Table III generators and checks the simulated
/// survival mean lands within 3 binomial standard errors of
/// noise::success_probability under matched channels.
void expect_model_agreement(const std::string& name,
                            const pn::NoiseOptions& channels) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  pb::GenOptions gen;
  gen.seed = 42;
  const px::CompileResult result =
      px::compile(pb::make_benchmark(name, gen), config, sim_options());

  const double model = pn::success_probability(result, config, channels);
  ps::SimOptions options;
  options.shots = 20000;
  options.seed = pu::derive_seed(42, name, pu::kSimSeedSalt);
  options.channels = channels;
  options.n_threads = 0;
  const ps::SurvivalEstimate estimate = ps::simulate(result, config, options);

  const double sigma = std::sqrt(model * (1.0 - model) /
                                 static_cast<double>(options.shots));
  EXPECT_NEAR(estimate.mean(), model, 3.0 * sigma + 1e-12)
      << name << ": model " << model << " vs simulated " << estimate.mean();
}

}  // namespace

TEST(Sim, ConvergesToClosedFormModelOnWst) {
  expect_model_agreement("WST", pn::NoiseOptions{});
}

TEST(Sim, ConvergesToClosedFormModelOnTfim) {
  expect_model_agreement("TFIM", pn::NoiseOptions{});
}

TEST(Sim, ConvergesWithPerQubitDecoherenceAndReadout) {
  pn::NoiseOptions channels;
  channels.per_qubit_decoherence = true;
  channels.include_readout = true;
  expect_model_agreement("WST", channels);
}

// --- errors -------------------------------------------------------------------

TEST(Sim, MissingPositionsIsAClearError) {
  auto options = sim_options();
  options.scheduler.record_positions = false;
  const px::CompileResult result = px::compile(
      ghz(8), ph::HardwareConfig::quera_aquila_256(), options);
  EXPECT_THROW(
      (void)ps::simulate(result, ph::HardwareConfig::quera_aquila_256(), {}),
      ps::SimError);
}

TEST(Sim, ALayerRangeOutsideLayerGatesIsAClearError) {
  // A reversed range and one past the end of layer_gates: the timeline
  // throws instead of reading either, and the ledger reports it as E1.
  const px::CompileResult schedule = ghz_schedule();
  const std::size_t n = schedule.layer_gates.size();
  for (const auto& [begin, end] :
       {std::pair<std::size_t, std::size_t>{1, 0}, {0, n + 1}}) {
    px::CompileResult corrupted = schedule;
    corrupted.layers.back().gates_begin = begin;
    corrupted.layers.back().gates_end = end;
    EXPECT_THROW((void)ps::build_timeline(
                     corrupted, ph::HardwareConfig::quera_aquila_256()),
                 ps::SimError);
    const auto report = px::validate_continuous(
        corrupted, ph::HardwareConfig::quera_aquila_256());
    ASSERT_FALSE(report.ok);
    EXPECT_EQ(report.violations.front().rfind("E1", 0), 0u);
  }
}

TEST(Sim, RejectsNonPositiveShotCounts) {
  ps::SimOptions options;
  options.shots = 0;
  EXPECT_THROW((void)ps::simulate(ghz_schedule(),
                                  ph::HardwareConfig::quera_aquila_256(),
                                  options),
               ps::SimError);
}

// --- the continuous-time event ledger -----------------------------------------

TEST(Ledger, AcceptsCompiledSchedules) {
  const auto report = px::validate_continuous(
      ghz_schedule(), ph::HardwareConfig::quera_aquila_256());
  EXPECT_TRUE(report.ok) << (report.violations.empty()
                                 ? ""
                                 : report.violations.front());
}

TEST(Ledger, ReportsMissingPositionsAsE0) {
  auto options = sim_options();
  options.scheduler.record_positions = false;
  const px::CompileResult result = px::compile(
      ghz(8), ph::HardwareConfig::quera_aquila_256(), options);
  const auto report = px::validate_continuous(
      result, ph::HardwareConfig::quera_aquila_256());
  ASSERT_FALSE(report.ok);
  EXPECT_EQ(report.violations.front().rfind("E0", 0), 0u);
}

TEST(Ledger, CatchesTwoAtomsOnOneSite) {
  px::CompileResult corrupted = ghz_schedule();
  ASSERT_GE(corrupted.layers.front().positions.size(), 2u);
  corrupted.layers.front().positions[1] =
      corrupted.layers.front().positions[0];
  const auto report = px::validate_continuous(
      corrupted, ph::HardwareConfig::quera_aquila_256());
  ASSERT_FALSE(report.ok);
  bool found = false;
  for (const auto& violation : report.violations) {
    found |= violation.rfind("E2", 0) == 0;
  }
  EXPECT_TRUE(found);
}

TEST(Ledger, CatchesTeleportingAtoms) {
  px::CompileResult corrupted = ghz_schedule();
  corrupted.layers.front().positions[0].x += 1e4;
  const auto report = px::validate_continuous(
      corrupted, ph::HardwareConfig::quera_aquila_256());
  ASSERT_FALSE(report.ok);
  bool found = false;
  for (const auto& violation : report.violations) {
    found |= violation.rfind("E3", 0) == 0;
  }
  EXPECT_TRUE(found);
}

TEST(Ledger, CatchesTamperedDurations) {
  px::CompileResult corrupted = ghz_schedule();
  corrupted.layers.front().duration_us += 5.0;
  const auto report = px::validate_continuous(
      corrupted, ph::HardwareConfig::quera_aquila_256());
  ASSERT_FALSE(report.ok);
  bool found = false;
  for (const auto& violation : report.violations) {
    found |= violation.rfind("E4", 0) == 0;
  }
  EXPECT_TRUE(found);
}

// --- the sweep-level simulated-fidelity backend -------------------------------

TEST(SimBackend, SweepScoresCellsWithTheSimulator) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  parallax::sweep::Options options;
  options.compile.seed = 42;
  options.compile.placement.anneal_iterations = 150;
  options.compile.placement.local_search_evaluations = 150;
  options.compile.fidelity.model = pn::FidelityModel::kSimulated;
  options.compile.fidelity.shots = 1024;
  options.n_threads = 1;

  const auto swept = parallax::sweep::run(
      {{"ghz", ghz(8)}}, {"parallax"}, {{"quera256", config}}, options,
      pt::Registry::global());
  ASSERT_EQ(swept.cells.size(), 1u);
  const auto& cell = swept.cells.front();
  ASSERT_TRUE(cell.ok()) << cell.error;

  // The sweep backend forced per-layer position recording...
  for (const auto& layer : cell.result.layers) {
    EXPECT_EQ(layer.positions.size(),
              static_cast<std::size_t>(cell.result.circuit.n_qubits()));
  }
  // ...and scored the cell with exactly the shot streams an out-of-band
  // simulation with the documented seed derivation reproduces.
  ps::SimOptions sim_options;
  sim_options.shots = 1024;
  sim_options.seed = pu::derive_seed(42, "ghz", pu::kSimSeedSalt);
  const ps::SurvivalEstimate estimate =
      ps::simulate(cell.result, config, sim_options);
  EXPECT_EQ(cell.success_probability, estimate.mean());
}

// --- golden lock --------------------------------------------------------------

TEST(Sim, GoldenOutcomeDigest) {
  const auto config = ph::HardwareConfig::quera_aquila_256();
  ps::SimOptions options;
  options.shots = 512;
  options.seed = pu::derive_seed(42, "ghz", pu::kSimSeedSalt);
  const ps::SurvivalEstimate estimate =
      ps::simulate(ghz_schedule(), config, options);
  // Locked digest of the 512 per-shot outcome bytes: any change to the shot
  // seeding, draw-plan order, or channel probabilities shows up here.
  EXPECT_EQ(estimate.outcome_digest.hex(),
            "ce0a89d79db75ac5faec1908f9a08aeb");
}
