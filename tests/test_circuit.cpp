// Tests for the circuit IR: gate builders, depth, dependency tracking,
// layering, unitary algebra, and the interaction graph.
#include <gtest/gtest.h>

#include <algorithm>
#include <numbers>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/dag.hpp"
#include "circuit/interaction_graph.hpp"
#include "circuit/unitary.hpp"
#include "util/rng.hpp"

namespace pc = parallax::circuit;
constexpr double kPi = std::numbers::pi;

namespace {
/// Fredkin circuit from the paper's Fig. 1 (3 qubits, cswap decomposition).
pc::Circuit fredkin() {
  pc::Circuit c(3, "fredkin");
  c.cswap(0, 1, 2);
  c.measure_all();
  return c;
}
}  // namespace

TEST(Gate, ArityAndTouch) {
  const auto u = pc::Gate::u3(2, 0.1, 0.2, 0.3);
  EXPECT_EQ(u.arity(), 1);
  EXPECT_TRUE(u.touches(2));
  EXPECT_FALSE(u.touches(1));

  const auto cz = pc::Gate::cz(0, 3);
  EXPECT_EQ(cz.arity(), 2);
  EXPECT_TRUE(cz.is_two_qubit());
  EXPECT_EQ(cz.other(0), 3);
  EXPECT_EQ(cz.other(3), 0);

  EXPECT_EQ(pc::Gate::barrier().arity(), 0);
}

TEST(Circuit, RejectsOutOfRangeQubits) {
  pc::Circuit c(2);
  EXPECT_THROW(c.u3(2, 0, 0, 0), std::out_of_range);
  EXPECT_THROW(c.cz(0, 5), std::out_of_range);
  EXPECT_THROW(c.cz(1, 1), std::invalid_argument);
}

TEST(Circuit, CountsByType) {
  pc::Circuit c(3);
  c.h(0);
  c.cx(0, 1);  // expands to h, cz, h
  c.cz(1, 2);
  c.swap(0, 2);
  c.measure_all();
  EXPECT_EQ(c.cz_count(), 2u);
  EXPECT_EQ(c.swap_count(), 1u);
  EXPECT_EQ(c.effective_cz_count(), 2u + 3u);
  EXPECT_EQ(c.u3_count(), 3u);
  EXPECT_EQ(c.count(pc::GateType::kMeasure), 3u);
}

TEST(Circuit, DepthSerialGates) {
  pc::Circuit c(1);
  for (int i = 0; i < 5; ++i) c.h(0);
  EXPECT_EQ(c.depth(), 5u);
}

TEST(Circuit, DepthParallelGates) {
  pc::Circuit c(4);
  c.h(0);
  c.h(1);
  c.h(2);
  c.h(3);
  EXPECT_EQ(c.depth(), 1u);
  c.cz(0, 1);
  c.cz(2, 3);
  EXPECT_EQ(c.depth(), 2u);
}

TEST(Circuit, BarrierForcesNewLayer) {
  pc::Circuit c(2);
  c.h(0);
  c.barrier();
  c.h(1);
  EXPECT_EQ(c.depth(), 2u);
}

TEST(Circuit, FredkinMatchesPaperShape) {
  // The paper's Fig. 1 Fredkin circuit has 16 layers in the {U3, CZ} basis
  // with measurement excluded; our cswap decomposition yields 8 CZ and a
  // comparable depth. Sanity-check the basic invariants rather than the
  // exact figure (decompositions differ in 1q-gate placement).
  const auto c = fredkin();
  EXPECT_EQ(c.n_qubits(), 3);
  EXPECT_EQ(c.cz_count(), 8u);
  EXPECT_GE(c.depth(), 12u);
}

TEST(DependencyTracker, InitialHeadsAreReady) {
  pc::Circuit c(2);
  c.h(0);    // gate 0
  c.cz(0, 1);  // gate 1
  pc::DependencyTracker dag(c);
  EXPECT_TRUE(dag.is_ready(0));
  EXPECT_FALSE(dag.is_ready(1));  // waits for gate 0 on qubit 0
  EXPECT_EQ(dag.remaining(), 2u);
}

TEST(DependencyTracker, ExecutionAdvancesCursor) {
  pc::Circuit c(2);
  c.h(0);
  c.cz(0, 1);
  c.h(1);
  pc::DependencyTracker dag(c);
  dag.mark_executed(0);
  EXPECT_TRUE(dag.is_ready(1));
  dag.mark_executed(1);
  EXPECT_TRUE(dag.is_ready(2));
  dag.mark_executed(2);
  EXPECT_TRUE(dag.done());
}

TEST(DependencyTracker, NextGatePerQubit) {
  pc::Circuit c(3);
  c.cz(0, 1);
  c.cz(1, 2);
  pc::DependencyTracker dag(c);
  EXPECT_EQ(dag.next_gate(0), std::size_t{0});
  EXPECT_EQ(dag.next_gate(1), std::size_t{0});
  EXPECT_EQ(dag.next_gate(2), std::size_t{1});
  EXPECT_FALSE(dag.is_ready(1));
  dag.mark_executed(0);
  EXPECT_TRUE(dag.is_ready(1));
}

namespace {

/// The ready list as a per-qubit scan builds it: each qubit's next gate in
/// ascending qubit order if it is ready, a gate's second appearance dropped.
std::vector<std::size_t> scanned_ready(const pc::DependencyTracker& dag) {
  std::vector<std::size_t> ready;
  for (std::int32_t q = 0; q < dag.circuit().n_qubits(); ++q) {
    const auto next = dag.next_gate(q);
    if (!next || !dag.is_ready(*next)) continue;
    if (std::find(ready.begin(), ready.end(), *next) != ready.end()) continue;
    ready.push_back(*next);
  }
  return ready;
}

std::vector<std::size_t> tracked_ready(const pc::DependencyTracker& dag) {
  std::vector<std::size_t> ready{7, 7, 7};  // stale contents are replaced
  dag.ready_gates(ready);
  return ready;
}

/// A seeded circuit mixing U3, CZ, measure and barrier gates.
pc::Circuit random_mixed_circuit(std::int32_t n_qubits, std::size_t n_gates,
                                 parallax::util::Rng& rng) {
  pc::Circuit c(n_qubits);
  const auto n = static_cast<std::uint64_t>(n_qubits);
  for (std::size_t i = 0; i < n_gates; ++i) {
    const auto q = static_cast<std::int32_t>(rng.next_below(n));
    const std::uint64_t kind = rng.next_below(10);
    if (kind < 4 || (kind < 8 && n_qubits < 2)) {
      c.u3(q, 0.1, 0.2, 0.3);
    } else if (kind < 8) {
      auto partner = static_cast<std::int32_t>(rng.next_below(n));
      while (partner == q) {
        partner = static_cast<std::int32_t>(rng.next_below(n));
      }
      c.cz(q, partner);
    } else if (kind < 9) {
      c.measure(q);
    } else {
      c.barrier();
    }
  }
  return c;
}

}  // namespace

// The ready set must hand out exactly the list the per-qubit scan builds,
// element for element, after construction and after every executed gate,
// on circuits wide enough to span several 64-bit words.
TEST(DependencyTracker, ReadySetMatchesThePerQubitScan) {
  parallax::util::Rng rng(0x5eadULL);
  for (int trial = 0; trial < 64; ++trial) {
    const auto n_qubits = static_cast<std::int32_t>(1 + rng.next_below(130));
    const std::size_t n_gates =
        rng.next_below(static_cast<std::uint64_t>(4 * n_qubits + 8));
    const pc::Circuit c = random_mixed_circuit(n_qubits, n_gates, rng);
    pc::DependencyTracker dag(c);
    ASSERT_EQ(tracked_ready(dag), scanned_ready(dag)) << "trial " << trial;
    while (!dag.done()) {
      std::vector<std::size_t> ready = tracked_ready(dag);
      ASSERT_FALSE(ready.empty()) << "trial " << trial;
      // Execute a random non-empty subset of the ready gates, in random
      // order, as a layer would.
      rng.shuffle(ready);
      ready.resize(1 + rng.next_below(ready.size()));
      for (const std::size_t gate : ready) {
        dag.mark_executed(gate);
        ASSERT_EQ(tracked_ready(dag), scanned_ready(dag))
            << "trial " << trial << ", after gate " << gate;
      }
    }
    EXPECT_TRUE(tracked_ready(dag).empty());
  }
}

TEST(DependencyTracker, EmptyAndZeroQubitCircuitsHaveNoReadyGates) {
  const pc::Circuit empty(5);
  const pc::DependencyTracker empty_dag(empty);
  EXPECT_TRUE(empty_dag.done());
  EXPECT_TRUE(tracked_ready(empty_dag).empty());

  pc::Circuit zero(0);
  zero.barrier();  // barriers never enter the tracker
  const pc::DependencyTracker zero_dag(zero);
  EXPECT_TRUE(zero_dag.done());
  EXPECT_TRUE(tracked_ready(zero_dag).empty());
}

TEST(DependencyTracker, RepeatedPairIsReadyOnlyAfterBothCursorsAdvance) {
  pc::Circuit c(70);
  c.cz(69, 3);  // lowest qubit 3, in the first word
  c.cz(3, 69);
  c.h(69);      // lowest qubit 69, in the second word
  pc::DependencyTracker dag(c);
  EXPECT_EQ(tracked_ready(dag), (std::vector<std::size_t>{0}));
  dag.mark_executed(0);
  EXPECT_EQ(tracked_ready(dag), (std::vector<std::size_t>{1}));
  dag.mark_executed(1);
  EXPECT_EQ(tracked_ready(dag), (std::vector<std::size_t>{2}));
  dag.mark_executed(2);
  EXPECT_TRUE(tracked_ready(dag).empty());
}

TEST(AsapLayers, RespectsDependencies) {
  pc::Circuit c(3);
  c.h(0);
  c.cz(0, 1);
  c.h(2);
  const auto layers = pc::asap_layers(c);
  ASSERT_EQ(layers.size(), 2u);
  // Layer 0: h(0) and h(2); layer 1: cz(0,1).
  EXPECT_EQ(layers[0].size(), 2u);
  EXPECT_EQ(layers[1].size(), 1u);
  EXPECT_EQ(layers[1][0], 1u);
}

TEST(AsapLayers, EveryGateAppearsExactlyOnce) {
  const auto c = fredkin();
  const auto layers = pc::asap_layers(c);
  std::vector<char> seen(c.size(), 0);
  for (const auto& layer : layers) {
    for (auto g : layer) {
      EXPECT_FALSE(seen[g]);
      seen[g] = 1;
    }
  }
  std::size_t total = 0;
  for (char s : seen) total += s;
  EXPECT_EQ(total, c.size());  // barriers absent here, all gates placed
}

// --- unitary algebra ---------------------------------------------------------

TEST(Unitary, U3OfZeroIsIdentity) {
  EXPECT_TRUE(pc::is_identity_up_to_phase(pc::u3_matrix(0, 0, 0)));
}

TEST(Unitary, HadamardSquaredIsIdentity) {
  const auto h = pc::u3_matrix(kPi / 2, 0, kPi);
  EXPECT_TRUE(pc::is_identity_up_to_phase(h * h));
}

TEST(Unitary, XYZRelation) {
  // Z * X = iY up to phase.
  const auto x = pc::u3_matrix(kPi, 0, kPi);
  const auto y = pc::u3_matrix(kPi, kPi / 2, kPi / 2);
  const auto z = pc::u3_matrix(0, 0, kPi);
  EXPECT_LT(pc::distance_up_to_phase(z * x, y), 1e-9);
}

TEST(Unitary, ZyzRoundTrip) {
  // Property: decomposing any U3 product and re-synthesizing reproduces the
  // matrix up to global phase.
  const double angles[] = {-2.5, -0.7, 0.0, 0.3, 1.2, kPi, 2.9};
  for (double t : angles) {
    for (double p : angles) {
      for (double l : angles) {
        const auto u = pc::u3_matrix(t, p, l);
        const auto e = pc::zyz_decompose(u);
        const auto v = pc::u3_matrix(e.theta, e.phi, e.lambda);
        EXPECT_LT(pc::distance_up_to_phase(u, v), 1e-9)
            << "t=" << t << " p=" << p << " l=" << l;
      }
    }
  }
}

TEST(Unitary, ZyzOfProductMatchesProduct) {
  const auto a = pc::u3_matrix(0.3, 1.1, -0.4);
  const auto b = pc::u3_matrix(2.0, -0.2, 0.9);
  const auto prod = b * a;
  const auto e = pc::zyz_decompose(prod);
  EXPECT_LT(pc::distance_up_to_phase(pc::u3_matrix(e.theta, e.phi, e.lambda),
                                     prod),
            1e-9);
}

// --- interaction graph -------------------------------------------------------

TEST(InteractionGraph, WeightsCountTwoQubitGates) {
  pc::Circuit c(3);
  c.cz(0, 1);
  c.cz(1, 0);  // same unordered pair
  c.cz(1, 2);
  pc::InteractionGraph g(c);
  ASSERT_EQ(g.edges().size(), 2u);
  EXPECT_EQ(g.edges()[0].weight, 2);
  EXPECT_EQ(g.edges()[1].weight, 1);
  EXPECT_EQ(g.degree(1), 3);
  EXPECT_EQ(g.partner_count(1), 2);
}

TEST(InteractionGraph, ConnectivityDetection) {
  pc::Circuit connected(3);
  connected.cz(0, 1);
  connected.cz(1, 2);
  EXPECT_TRUE(pc::InteractionGraph(connected).connected_over_active());

  pc::Circuit split(4);
  split.cz(0, 1);
  split.cz(2, 3);
  EXPECT_FALSE(pc::InteractionGraph(split).connected_over_active());
}

TEST(InteractionGraph, IsolatedQubitsIgnored) {
  pc::Circuit c(5);
  c.cz(0, 1);
  c.h(4);  // qubit 4 never interacts
  EXPECT_TRUE(pc::InteractionGraph(c).connected_over_active());
}

TEST(InteractionGraph, MeanConnectivity) {
  pc::Circuit c(4);
  c.cz(0, 1);
  c.cz(0, 2);
  c.cz(0, 3);
  // Partners: q0 has 3, q1/q2/q3 have 1 each -> mean 6/4.
  EXPECT_DOUBLE_EQ(pc::InteractionGraph(c).mean_connectivity(), 1.5);
}
