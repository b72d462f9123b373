// Parallax compiler tests: AOD selection, the movement engine, Algorithm 1
// scheduling, and end-to-end pipeline invariants (zero SWAPs, in-range CZ
// execution, dependency preservation, blockade exclusivity, AOD ordering).
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "bench_circuits/registry.hpp"
#include "circuit/circuit.hpp"
#include "circuit/transpile.hpp"
#include "hardware/machine.hpp"
#include "parallax/aod_selection.hpp"
#include "parallax/compiler.hpp"
#include "parallax/movement.hpp"
#include "parallax/scheduler.hpp"
#include "pipeline/passes.hpp"
#include "technique/registry.hpp"
#include "util/rng.hpp"

namespace pc = parallax::circuit;
namespace ph = parallax::hardware;
namespace pp = parallax::placement;
namespace px = parallax::compiler;

namespace {

px::CompilerOptions fast_options() {
  px::CompilerOptions options;
  options.placement.anneal_iterations = 150;
  options.placement.local_search_evaluations = 150;
  options.seed = 42;
  return options;
}

/// Random circuit with a controllable 2q-gate density.
pc::Circuit random_circuit(std::int32_t n_qubits, int n_gates,
                           std::uint64_t seed) {
  parallax::util::Rng rng(seed);
  pc::Circuit c(n_qubits, "random");
  for (int i = 0; i < n_gates; ++i) {
    if (rng.bernoulli(0.5)) {
      c.u3(static_cast<std::int32_t>(rng.next_below(
               static_cast<std::uint64_t>(n_qubits))),
           rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3));
    } else {
      const auto a = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(n_qubits)));
      auto b = static_cast<std::int32_t>(
          rng.next_below(static_cast<std::uint64_t>(n_qubits)));
      while (b == a) {
        b = static_cast<std::int32_t>(
            rng.next_below(static_cast<std::uint64_t>(n_qubits)));
      }
      c.cz(a, b);
    }
  }
  return c;
}

pc::Circuit ghz(std::int32_t n) {
  pc::Circuit c(n, "ghz");
  c.h(0);
  for (std::int32_t q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  c.measure_all();
  return c;
}

/// Simulates the compiled schedule and checks the paper's physical
/// invariants layer by layer. This re-derives atom motion from the layer
/// records, so it validates what the scheduler *claims* happened.
void check_schedule_invariants(const px::CompileResult& result) {
  // (1) Zero SWAPs ever.
  EXPECT_EQ(result.circuit.swap_count(), 0u);
  for (const auto& layer : result.layers) {
    // (2) No two gates in a layer touch the same qubit.
    std::set<std::int32_t> touched;
    for (const auto gi : result.gates(layer)) {
      const auto& g = result.circuit.gate(gi);
      for (int k = 0; k < g.arity(); ++k) {
        EXPECT_TRUE(touched.insert(g.q[k]).second)
            << "qubit " << g.q[k] << " used twice in one layer";
      }
    }
  }
  // (3) Per-qubit order preservation: flattening layers in order must visit
  // each qubit's gates in circuit order.
  std::map<std::int32_t, std::vector<std::size_t>> expected, actual;
  for (std::size_t gi = 0; gi < result.circuit.size(); ++gi) {
    const auto& g = result.circuit.gate(gi);
    if (g.type == pc::GateType::kBarrier) continue;
    for (int k = 0; k < g.arity(); ++k) expected[g.q[k]].push_back(gi);
  }
  for (const auto& layer : result.layers) {
    for (const auto gi : result.gates(layer)) {
      const auto& g = result.circuit.gate(gi);
      for (int k = 0; k < g.arity(); ++k) actual[g.q[k]].push_back(gi);
    }
  }
  EXPECT_EQ(expected, actual);
  // (4) Every gate scheduled exactly once.
  std::size_t scheduled = 0;
  for (const auto& layer : result.layers) {
    scheduled += result.gates(layer).size();
  }
  std::size_t schedulable = 0;
  for (const auto& g : result.circuit.gates()) {
    schedulable += (g.type != pc::GateType::kBarrier);
  }
  EXPECT_EQ(scheduled, schedulable);
}

}  // namespace

// --- AOD selection --------------------------------------------------------------

TEST(AodSelection, SelectsAtMostOnePerRowColumn) {
  const auto c = pc::transpile(random_circuit(12, 120, 3));
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const pc::InteractionGraph graph(c);
  pp::GraphineOptions gopt;
  gopt.anneal_iterations = 100;
  const auto topology = pp::discretize(pp::graphine_place(graph, gopt), config);
  ph::Machine machine(config, topology);
  const auto selection = px::select_aod_qubits(c, machine);

  std::set<std::int32_t> rows, cols;
  for (std::int32_t q = 0; q < machine.n_qubits(); ++q) {
    if (!machine.atom(q).in_aod()) continue;
    EXPECT_TRUE(rows.insert(machine.atom(q).aod_row).second);
    EXPECT_TRUE(cols.insert(machine.atom(q).aod_col).second);
  }
  EXPECT_EQ(rows.size(), selection.in_aod.size()
                             ? static_cast<std::size_t>(std::count(
                                   selection.in_aod.begin(),
                                   selection.in_aod.end(), 1))
                             : 0u);
}

TEST(AodSelection, MaintainsOrderingAndSeparation) {
  const auto c = pc::transpile(random_circuit(16, 200, 5));
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const pc::InteractionGraph graph(c);
  pp::GraphineOptions gopt;
  gopt.anneal_iterations = 100;
  const auto topology = pp::discretize(pp::graphine_place(graph, gopt), config);
  ph::Machine machine(config, topology);
  (void)px::select_aod_qubits(c, machine);
  EXPECT_TRUE(machine.aod().ordering_valid());
  EXPECT_FALSE(machine.separation_violation().has_value());
}

TEST(AodSelection, NoMobileQubitsWhenAllInRange) {
  // A 2-qubit circuit always places the pair within the radius.
  pc::Circuit c(2);
  c.cz(0, 1);
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const pc::InteractionGraph graph(c);
  pp::GraphineOptions gopt;
  gopt.anneal_iterations = 50;
  const auto topology = pp::discretize(pp::graphine_place(graph, gopt), config);
  ph::Machine machine(config, topology);
  const auto selection = px::select_aod_qubits(c, machine);
  EXPECT_EQ(std::count(selection.in_aod.begin(), selection.in_aod.end(), 1),
            0);
  EXPECT_EQ(selection.out_of_range_pairs, 0u);
}

// --- movement engine -------------------------------------------------------------

namespace {
/// Builds a machine with atoms on a simple grid and one atom lifted to AOD.
struct MovementFixture {
  ph::HardwareConfig config = ph::HardwareConfig::quera_aquila_256();
  std::unique_ptr<ph::Machine> machine;

  explicit MovementFixture(std::size_t n) {
    pp::Topology normalized;
    const auto side = static_cast<std::size_t>(
        std::ceil(std::sqrt(static_cast<double>(n))));
    for (std::size_t q = 0; q < n; ++q) {
      normalized.positions.push_back(
          {static_cast<double>(q % side) / static_cast<double>(side),
           static_cast<double>(q / side) / static_cast<double>(side)});
    }
    const auto topology = pp::discretize(normalized, config);
    machine = std::make_unique<ph::Machine>(config, topology);
  }
};
}  // namespace

TEST(Movement, MovesIntoRange) {
  MovementFixture fixture(9);
  auto& machine = *fixture.machine;
  machine.assign_to_aod(0, 0, 0);
  machine.save_home();
  // Qubit 8 is diagonally far from qubit 0 in the 3x3 layout.
  ASSERT_FALSE(machine.within_interaction(0, 8));
  px::MovementEngine engine(machine);
  const auto outcome = engine.move_into_range(0, 8);
  ASSERT_TRUE(outcome.success);
  EXPECT_TRUE(machine.within_interaction(0, 8));
  EXPECT_GT(outcome.max_distance_um, 0.0);
  EXPECT_FALSE(machine.separation_violation().has_value());
  EXPECT_TRUE(machine.aod().ordering_valid());
}

TEST(Movement, RespectsMinSeparationFromPartner) {
  MovementFixture fixture(9);
  auto& machine = *fixture.machine;
  machine.assign_to_aod(0, 0, 0);
  px::MovementEngine engine(machine);
  const auto outcome = engine.move_into_range(0, 8);
  ASSERT_TRUE(outcome.success);
  const double d =
      parallax::geom::distance(machine.position(0), machine.position(8));
  EXPECT_GE(d, machine.config().min_separation_um);
  EXPECT_LE(d, machine.interaction_radius());
}

TEST(Movement, FailureRestoresState) {
  MovementFixture fixture(9);
  auto& machine = *fixture.machine;
  machine.assign_to_aod(0, 0, 0);
  // An impossibly tight budget forces failure.
  px::MovementEngine engine(machine, /*max_iterations=*/0);
  const auto before = machine.position(0);
  const auto outcome = engine.move_into_range(0, 8);
  EXPECT_FALSE(outcome.success);
  EXPECT_EQ(machine.position(0), before);
}

namespace {
/// Parks all unassigned AOD lines outside the field (what select_aod_qubits
/// does in production) so manual assignments start from a valid ordering.
void park_free_lines(ph::Machine& machine) {
  auto& aod = machine.aod();
  const double gap = aod.min_line_gap();
  const double base = machine.grid().extent() + 20.0;
  int parked = 0;
  for (std::int32_t r = 0; r < aod.n_rows(); ++r) {
    if (aod.row_qubit(r) < 0) aod.set_row_coord(r, base + gap * parked++);
  }
  parked = 0;
  for (std::int32_t c = 0; c < aod.n_cols(); ++c) {
    if (aod.col_qubit(c) < 0) aod.set_col_coord(c, base + gap * parked++);
  }
}
}  // namespace

TEST(Movement, DisplacesObstructingAodAtom) {
  MovementFixture fixture(16);
  auto& machine = *fixture.machine;
  machine.assign_to_aod(0, 0, 0);
  machine.assign_to_aod(5, 1, 1);
  park_free_lines(machine);
  ASSERT_TRUE(machine.aod().ordering_valid());
  machine.save_home();
  // Move atom 0 right next to where atom 5 sits: 5 must be pushed away and
  // all constraints must still hold afterwards.
  px::MovementEngine engine(machine);
  const auto outcome = engine.move_into_range(0, 5);
  ASSERT_TRUE(outcome.success);
  EXPECT_TRUE(machine.within_interaction(0, 5));
  EXPECT_FALSE(machine.separation_violation().has_value());
  EXPECT_TRUE(machine.aod().ordering_valid());
}

// --- scheduler -------------------------------------------------------------------

TEST(Scheduler, RejectsSwapCircuits) {
  pc::Circuit c(2);
  c.swap(0, 1);
  const auto config = ph::HardwareConfig::quera_aquila_256();
  MovementFixture fixture(2);
  px::SchedulerOptions options;
  EXPECT_THROW((void)px::schedule_gates(c, *fixture.machine, options),
               std::invalid_argument);
}

TEST(Scheduler, AllGatesScheduledOnce) {
  const auto c = pc::transpile(ghz(6));
  MovementFixture fixture(6);
  px::SchedulerOptions options;
  const auto output = px::schedule_gates(c, *fixture.machine, options);
  std::size_t total = 0;
  for (const auto& layer : output.layers) {
    total += layer.gates_end - layer.gates_begin;
  }
  std::size_t schedulable = 0;
  for (const auto& g : c.gates()) {
    schedulable += (g.type != pc::GateType::kBarrier);
  }
  EXPECT_EQ(total, schedulable);
  EXPECT_GT(output.runtime_us, 0.0);
}

TEST(Scheduler, MoveMemoReplaysRecurringSearches) {
  // QV-32's out-of-range pairs come back layer after layer from the same
  // home configuration; the schedule pass runs each (mover, partner) search
  // once and replays it after that.
  namespace pl = parallax::pipeline;
  pl::CompileOptions options;
  parallax::technique::Registry::global().apply_tuning("parallax-fast",
                                                       options);
  px::ScheduleOutput output;
  pl::Pipeline pipeline("parallax-fast");
  pipeline.add(pl::passes::transpile())
      .add(pl::passes::graphine_placement())
      .add(pl::passes::discretize())
      .add(pl::passes::aod_selection())
      .add(pl::Pass("schedule", [&output](pl::CompileContext& ctx) {
        output = px::schedule_gates(ctx.result.circuit, *ctx.machine,
                                    ctx.options.scheduler);
      }));
  (void)pipeline.run(parallax::bench_circuits::make_benchmark("QV"),
                     ph::HardwareConfig::atom_computing_1225(), options);
  EXPECT_GT(output.move_evaluations, 0u);
  EXPECT_GT(output.move_replays, output.move_evaluations);
  // Each AOD move in the schedule came from one of those calls.
  EXPECT_GE(output.move_evaluations + output.move_replays,
            output.stats.aod_moves);
}

// --- end-to-end pipeline ------------------------------------------------------------

TEST(Compiler, GhzEndToEnd) {
  const auto result = px::compile(ghz(8), ph::HardwareConfig::quera_aquila_256(),
                                  fast_options());
  EXPECT_EQ(result.technique, "parallax");
  EXPECT_EQ(result.stats.cz_gates, 7u);
  EXPECT_EQ(result.stats.swap_gates, 0u);
  EXPECT_GT(result.runtime_us, 0.0);
  check_schedule_invariants(result);
}

TEST(Compiler, RandomCircuitInvariants) {
  for (const std::uint64_t seed : {11ull, 22ull, 33ull}) {
    const auto input = random_circuit(10, 150, seed);
    const auto result = px::compile(
        input, ph::HardwareConfig::quera_aquila_256(), fast_options());
    check_schedule_invariants(result);
    // CZ count must exactly match the transpiled input (zero SWAP => no
    // extra two-qubit gates beyond the circuit's own).
    EXPECT_EQ(result.stats.cz_gates, result.circuit.cz_count());
  }
}

TEST(Compiler, FredkinFromPaperFig1) {
  pc::Circuit fredkin(3, "fredkin");
  fredkin.cswap(0, 1, 2);
  fredkin.measure_all();
  const auto result = px::compile(
      fredkin, ph::HardwareConfig::quera_aquila_256(), fast_options());
  check_schedule_invariants(result);
  EXPECT_LE(result.stats.cz_gates, 8u);
}

TEST(Compiler, RejectsOversizedCircuit) {
  const auto c = random_circuit(300, 10, 1);
  EXPECT_THROW((void)px::compile(c, ph::HardwareConfig::quera_aquila_256(),
                                 fast_options()),
               px::CompileError);
}

TEST(Compiler, DeterministicForSeed) {
  const auto input = random_circuit(8, 80, 7);
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const auto a = px::compile(input, config, fast_options());
  const auto b = px::compile(input, config, fast_options());
  EXPECT_EQ(a.runtime_us, b.runtime_us);
  EXPECT_EQ(a.layers.size(), b.layers.size());
  EXPECT_EQ(a.stats.trap_changes, b.stats.trap_changes);
}

TEST(Compiler, PresetTopologySkipsAnnealing) {
  const auto input = pc::transpile(ghz(5));
  px::CompilerOptions options = fast_options();
  pp::Topology preset;
  for (int q = 0; q < 5; ++q) {
    preset.positions.push_back({0.2 * q, 0.1});
  }
  options.preset_topology = preset;
  options.assume_transpiled = true;
  const auto result = px::compile(
      input, ph::HardwareConfig::quera_aquila_256(), options);
  check_schedule_invariants(result);
}

TEST(Compiler, HomeReturnAblationChangesRuntimeOnly) {
  const auto input = random_circuit(12, 200, 13);
  px::CompilerOptions with_home = fast_options();
  px::CompilerOptions without_home = fast_options();
  without_home.scheduler.return_home = false;
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const auto a = px::compile(input, config, with_home);
  const auto b = px::compile(input, config, without_home);
  // The ablation must not change the gate counts (paper: "no impact on the
  // CZ gate count").
  EXPECT_EQ(a.stats.cz_gates, b.stats.cz_gates);
  check_schedule_invariants(a);
  check_schedule_invariants(b);
}

TEST(Compiler, AodCountOneStillCompiles) {
  auto config = ph::HardwareConfig::quera_aquila_256();
  config.aod_rows = 1;
  config.aod_cols = 1;
  const auto result =
      px::compile(random_circuit(8, 100, 17), config, fast_options());
  check_schedule_invariants(result);
  EXPECT_LE(result.aod_qubit_count(), 1u);
}
