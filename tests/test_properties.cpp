// Property-based stress tests: randomized sweeps (parameterized over seeds
// and sizes) that hammer the movement engine and the full pipeline, checking
// the paper's physical invariants after every operation. These are the
// tests that caught the recursive-displacement hazards during development
// (a "successful" move carrying its own partner out of range; ejected gates
// double-charging trap changes).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <string>

#include "circuit/circuit.hpp"
#include "circuit/transpile.hpp"
#include "hardware/machine.hpp"
#include "parallax/aod_selection.hpp"
#include "parallax/compiler.hpp"
#include "parallax/movement.hpp"
#include "parallax/validate.hpp"
#include "placement/discretize.hpp"
#include "util/rng.hpp"

namespace pc = parallax::circuit;
namespace ph = parallax::hardware;
namespace pp = parallax::placement;
namespace px = parallax::compiler;
namespace pg = parallax::geom;

namespace {

ph::Machine make_machine(std::size_t n_atoms, const ph::HardwareConfig& config) {
  pp::Topology normalized;
  const auto side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n_atoms))));
  for (std::size_t q = 0; q < n_atoms; ++q) {
    normalized.positions.push_back(
        {static_cast<double>(q % side) / static_cast<double>(side),
         static_cast<double>(q / side) / static_cast<double>(side)});
  }
  return ph::Machine(config, pp::discretize(normalized, config));
}

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

/// Lifts 3-5 atoms of a make_machine() layout into the AOD. They lie along
/// the layout diagonal so their rows and columns are pairwise distinct — the
/// production selection nudges colliding coordinates; this fixture just
/// avoids collisions.
std::vector<std::int32_t> lift_diagonal(ph::Machine& machine,
                                        std::size_t n_atoms,
                                        parallax::util::Rng& rng) {
  const auto side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n_atoms))));
  const std::size_t n_mobile = std::min<std::size_t>(3 + rng.pick_index(3),
                                                     side);
  std::vector<std::int32_t> mobile;
  for (std::size_t i = 0; i < n_mobile; ++i) {
    const auto q = static_cast<std::int32_t>(i * (side + 1));
    if (q < static_cast<std::int32_t>(n_atoms)) mobile.push_back(q);
  }
  // Sort by y for rows, x for cols (the non-crossing precondition).
  std::vector<std::int32_t> by_y = mobile, by_x = mobile;
  std::sort(by_y.begin(), by_y.end(), [&](auto a, auto b) {
    return machine.position(a).y < machine.position(b).y;
  });
  std::sort(by_x.begin(), by_x.end(), [&](auto a, auto b) {
    return machine.position(a).x < machine.position(b).x;
  });
  std::map<std::int32_t, std::pair<std::int32_t, std::int32_t>> line_of;
  for (std::size_t i = 0; i < by_y.size(); ++i) {
    line_of[by_y[i]].first = static_cast<std::int32_t>(i);
  }
  for (std::size_t i = 0; i < by_x.size(); ++i) {
    line_of[by_x[i]].second = static_cast<std::int32_t>(i);
  }
  for (const auto q : mobile) {
    machine.assign_to_aod(q, line_of[q].first, line_of[q].second);
  }
  park_free_lines(machine);
  return mobile;
}

/// Every atom coordinate and every AOD line coordinate, as bit patterns.
std::vector<std::uint64_t> configuration_bits(const ph::Machine& machine) {
  std::vector<std::uint64_t> bits;
  for (std::int32_t q = 0; q < machine.n_qubits(); ++q) {
    bits.push_back(std::bit_cast<std::uint64_t>(machine.position(q).x));
    bits.push_back(std::bit_cast<std::uint64_t>(machine.position(q).y));
  }
  const auto& aod = machine.aod();
  for (std::int32_t r = 0; r < aod.n_rows(); ++r) {
    bits.push_back(std::bit_cast<std::uint64_t>(aod.row_coord(r)));
  }
  for (std::int32_t c = 0; c < aod.n_cols(); ++c) {
    bits.push_back(std::bit_cast<std::uint64_t>(aod.col_coord(c)));
  }
  return bits;
}

}  // namespace

// --- randomized movement stress ------------------------------------------------

class MovementStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MovementStress, RandomMoveSequencesPreserveInvariants) {
  parallax::util::Rng rng(GetParam());
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const std::size_t n_atoms = 12 + rng.pick_index(14);  // 12..25 atoms
  auto machine = make_machine(n_atoms, config);

  const auto mobile = lift_diagonal(machine, n_atoms, rng);
  ASSERT_TRUE(machine.aod().ordering_valid());
  machine.save_home();

  px::MovementEngine engine(machine);
  int successes = 0;
  for (int step = 0; step < 40; ++step) {
    const auto mover = mobile[rng.pick_index(mobile.size())];
    auto partner = static_cast<std::int32_t>(rng.pick_index(n_atoms));
    while (partner == mover) {
      partner = static_cast<std::int32_t>(rng.pick_index(n_atoms));
    }
    const auto outcome = engine.move_into_range(mover, partner);
    if (outcome.success) {
      ++successes;
      // Post-conditions of a successful move:
      EXPECT_TRUE(machine.within_interaction(mover, partner));
      EXPECT_GE(pg::distance(machine.position(mover),
                             machine.position(partner)),
                config.min_separation_um - 1e-9);
    }
    // Universal invariants, success or failure:
    EXPECT_FALSE(machine.separation_violation().has_value())
        << "seed " << GetParam() << " step " << step;
    EXPECT_TRUE(machine.aod().ordering_valid())
        << "seed " << GetParam() << " step " << step;
    if (rng.bernoulli(0.3)) {
      machine.return_all_home();
      machine.save_home();
    }
  }
  // The engine should succeed most of the time on a sparse machine.
  EXPECT_GT(successes, 20) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, MovementStress,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

// --- the move memo's premise ---------------------------------------------------
//
// The schedule pass replays a (mover, partner) search instead of rerunning it
// while home is unchanged. That is sound only if every search starts from
// home (return_all_home() restores it bit for bit) and the engine carries no
// state from one call to the next: the same pair from the same home must give
// the same outcome and the same configuration, whatever ran in between.

class MovementReplay : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MovementReplay, SamePairFromHomeRepeatsBitForBit) {
  parallax::util::Rng rng(GetParam());
  const auto config = ph::HardwareConfig::quera_aquila_256();
  const std::size_t n_atoms = 12 + rng.pick_index(14);  // 12..25 atoms
  auto machine = make_machine(n_atoms, config);
  const auto mobile = lift_diagonal(machine, n_atoms, rng);
  machine.save_home();
  const auto home = configuration_bits(machine);

  struct Call {
    std::int32_t mover;
    std::int32_t partner;
    px::MoveOutcome outcome;
    std::vector<std::uint64_t> after;
  };
  px::MovementEngine engine(machine);
  std::vector<Call> calls;
  for (int i = 0; i < 12; ++i) {
    Call call;
    call.mover = mobile[rng.pick_index(mobile.size())];
    do {
      call.partner = static_cast<std::int32_t>(rng.pick_index(n_atoms));
    } while (call.partner == call.mover);
    call.outcome = engine.move_into_range(call.mover, call.partner);
    call.after = configuration_bits(machine);
    machine.return_all_home();
    ASSERT_EQ(configuration_bits(machine), home) << "call " << i;
    calls.push_back(std::move(call));
  }

  // Repeat every call in reverse order: each now follows different pairs.
  for (auto it = calls.rbegin(); it != calls.rend(); ++it) {
    const px::MoveOutcome again =
        engine.move_into_range(it->mover, it->partner);
    const std::string pair =
        std::to_string(it->mover) + "->" + std::to_string(it->partner);
    EXPECT_EQ(again.success, it->outcome.success) << pair;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(again.max_distance_um),
              std::bit_cast<std::uint64_t>(it->outcome.max_distance_um))
        << pair;
    EXPECT_EQ(again.displaced_atoms, it->outcome.displaced_atoms) << pair;
    EXPECT_EQ(again.iterations, it->outcome.iterations) << pair;
    EXPECT_EQ(configuration_bits(machine), it->after) << pair;
    machine.return_all_home();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MovementReplay,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u, 21u, 34u,
                                           55u, 89u));

// --- randomized pipeline sweeps ---------------------------------------------------

class PipelineSweep : public ::testing::TestWithParam<std::uint64_t> {};

namespace {
pc::Circuit random_circuit(std::int32_t n_qubits, int n_gates,
                           std::uint64_t seed) {
  parallax::util::Rng rng(seed);
  pc::Circuit c(n_qubits, "sweep");
  for (int i = 0; i < n_gates; ++i) {
    const auto r = rng.next_double();
    if (r < 0.45) {
      c.u3(static_cast<std::int32_t>(rng.pick_index(
               static_cast<std::size_t>(n_qubits))),
           rng.uniform(-3, 3), rng.uniform(-3, 3), rng.uniform(-3, 3));
    } else if (r < 0.9) {
      const auto a = static_cast<std::int32_t>(
          rng.pick_index(static_cast<std::size_t>(n_qubits)));
      auto b = static_cast<std::int32_t>(
          rng.pick_index(static_cast<std::size_t>(n_qubits)));
      while (b == a) {
        b = static_cast<std::int32_t>(
            rng.pick_index(static_cast<std::size_t>(n_qubits)));
      }
      c.cz(a, b);
    } else if (r < 0.95) {
      c.barrier();
    } else {
      c.measure(static_cast<std::int32_t>(
          rng.pick_index(static_cast<std::size_t>(n_qubits))));
    }
  }
  return c;
}
}  // namespace

TEST_P(PipelineSweep, RandomCircuitsCompileAndValidate) {
  const std::uint64_t seed = GetParam();
  parallax::util::Rng rng(seed ^ 0xfeed);
  const auto n_qubits = static_cast<std::int32_t>(6 + rng.pick_index(20));
  const int n_gates = 50 + static_cast<int>(rng.pick_index(250));
  const auto input = random_circuit(n_qubits, n_gates, seed);
  const auto config = ph::HardwareConfig::quera_aquila_256();

  px::CompilerOptions options;
  options.seed = seed;
  options.placement.anneal_iterations = 120;
  options.placement.local_search_evaluations = 120;
  options.scheduler.record_positions = true;
  const auto result = px::compile(input, config, options);

  const auto report = px::validate_schedule(result, config);
  EXPECT_TRUE(report.ok) << "seed " << seed << ": "
                         << (report.violations.empty()
                                 ? ""
                                 : report.violations.front());
  EXPECT_EQ(result.stats.swap_gates, 0u);
  EXPECT_EQ(result.stats.cz_gates, result.circuit.cz_count());
}

TEST_P(PipelineSweep, NoHomeReturnAlsoValidates) {
  const std::uint64_t seed = GetParam();
  const auto input = random_circuit(10, 120, seed);
  const auto config = ph::HardwareConfig::quera_aquila_256();
  px::CompilerOptions options;
  options.seed = seed;
  options.placement.anneal_iterations = 120;
  options.scheduler.return_home = false;
  options.scheduler.record_positions = true;
  const auto result = px::compile(input, config, options);
  const auto report = px::validate_schedule(result, config);
  EXPECT_TRUE(report.ok) << "seed " << seed << ": "
                         << (report.violations.empty()
                                 ? ""
                                 : report.violations.front());
}

TEST_P(PipelineSweep, TinyAodBudgetStillTerminates) {
  // One AOD line and a tiny recursion budget: moves fail often, trap
  // changes absorb the slack, and compilation must still terminate with a
  // valid schedule (the progress guarantee).
  const std::uint64_t seed = GetParam();
  const auto input = random_circuit(9, 90, seed);
  auto config = ph::HardwareConfig::quera_aquila_256();
  config.aod_rows = config.aod_cols = 1;
  px::CompilerOptions options;
  options.seed = seed;
  options.placement.anneal_iterations = 80;
  options.scheduler.max_move_iterations = 4;
  options.scheduler.record_positions = true;
  const auto result = px::compile(input, config, options);
  const auto report = px::validate_schedule(result, config);
  EXPECT_TRUE(report.ok) << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, PipelineSweep,
                         ::testing::Values(101u, 202u, 303u, 404u, 505u,
                                           606u, 707u, 808u));

// --- AOD selection properties -----------------------------------------------------

class SelectionSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SelectionSweep, SelectionInvariants) {
  const std::uint64_t seed = GetParam();
  const auto input = pc::transpile(random_circuit(14, 180, seed));
  const auto config = ph::HardwareConfig::quera_aquila_256();
  auto machine = make_machine(14, config);
  const auto selection = px::select_aod_qubits(input, machine);

  // One atom per row/column pair; ordering and separation valid.
  std::set<std::int32_t> rows, cols;
  std::size_t mobile = 0;
  for (std::int32_t q = 0; q < machine.n_qubits(); ++q) {
    if (!machine.atom(q).in_aod()) continue;
    ++mobile;
    EXPECT_TRUE(rows.insert(machine.atom(q).aod_row).second);
    EXPECT_TRUE(cols.insert(machine.atom(q).aod_col).second);
  }
  EXPECT_EQ(mobile, static_cast<std::size_t>(std::count(
                        selection.in_aod.begin(), selection.in_aod.end(), 1)));
  EXPECT_LE(mobile, static_cast<std::size_t>(config.aod_rows));
  EXPECT_TRUE(machine.aod().ordering_valid());
  EXPECT_FALSE(machine.separation_violation().has_value());

  // Coverage: every out-of-range pair has a mobile endpoint unless capacity
  // ran out.
  if (mobile < static_cast<std::size_t>(config.aod_rows)) {
    EXPECT_EQ(selection.uncovered_pairs, 0u) << "seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SelectionSweep,
                         ::testing::Values(7u, 77u, 777u, 7777u));
