// GRAPHINE-style initial topology generation (paper Sec. II-A): the circuit
// is converted to a weighted interaction graph, dual annealing places qubits
// on a normalized [0,1]^2 plane so that heavily-interacting pairs are close,
// and the Rydberg interaction radius is chosen as the smallest radius that
// keeps every qubit reachable (the bottleneck edge of the Euclidean MST).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "anneal/dual_annealing.hpp"
#include "circuit/interaction_graph.hpp"
#include "geometry/point.hpp"

namespace parallax::placement {

/// How the annealer explores the placement landscape.
enum class ProposalMode : std::uint8_t {
  /// Legacy reference path: every coordinate perturbed per iteration, full
  /// re-score per proposal in O(E + n) (a hypot per edge, and a uniform-grid
  /// scan for the crowding pairs). Byte-identical to pre-delta-scoring
  /// builds — cached fingerprints and goldens stay valid.
  kFullVector = 0,
  /// Delta-cost hot path: one qubit moves per proposal, scored
  /// incrementally in O(deg + local neighbors) against a spatial hash, with
  /// every iteration's visit draws and acceptance uniforms taken from a
  /// counter-based block stream. Fingerprint-distinct from the legacy mode.
  /// The value is fed into fingerprints, so it stays 2 (1 named a retired
  /// per-site walk).
  kBatched = 2,
};

struct GraphineOptions {
  /// Annealing sweeps for the global placement search. The effective
  /// evaluation budget is max_iterations plus periodic local searches.
  int anneal_iterations = 600;
  /// Local-search evaluation budget per invocation.
  int local_search_evaluations = 400;
  /// Crowding penalty: pairs closer than `crowding_distance / sqrt(n)` are
  /// penalized quadratically so the layout cannot collapse to a point.
  double crowding_distance = 0.5;
  double crowding_weight = 10.0;
  /// Seed the annealer with a BFS-serpentine heuristic layout instead of a
  /// random state. Dramatically better for structured circuits (chains,
  /// combs) at any annealing budget; the annealer still explores globally.
  bool warm_start = true;
  std::uint64_t seed = 0x6ea7;
  /// Proposal mode (see ProposalMode). The default keeps the legacy
  /// annealer bit-for-bit.
  ProposalMode proposal = ProposalMode::kFullVector;
  /// Independent annealing chains, reduced deterministically (lowest value,
  /// then lowest chain index) and fanned across a transient thread pool; 1
  /// keeps a single chain. chains > 1 requires kBatched (graphine_place
  /// throws std::invalid_argument otherwise). Fingerprint-visible only when
  /// non-default, so legacy cache keys are untouched.
  int chains = 1;
  /// Windowed placement threshold: when positive and smaller than the
  /// circuit's qubit count, the interaction graph is partitioned into
  /// windows of at most this many qubits, each annealed independently and
  /// stitched (placement/windowed.hpp). 0 disables windowing. Callers
  /// normalize the field to 0 whenever the circuit fits in one window
  /// (pipeline and sweep do), so it is fingerprint-visible only when the
  /// windowed path actually runs and every legacy cache key is untouched.
  int max_window_qubits = 0;
  /// Optimizer portfolio: when positive, the anneal budget is split across
  /// up to this many raced entrants (delta single-chain, mc4 reduction,
  /// Nelder-Mead polish, fresh restart — in that fixed order) and the
  /// deterministic winner is kept (anneal/portfolio.hpp). 0 keeps the
  /// single-optimizer paths. Requires kBatched, like chains > 1.
  /// Fingerprint-visible only when non-zero, so every legacy cache key is
  /// untouched.
  int portfolio_entrants = 0;
};

/// A placement in normalized coordinates plus the selected radius.
struct Topology {
  std::vector<geom::Point> positions;  // one per logical qubit, in [0,1]^2
  double interaction_radius = 0.0;     // normalized units
};

/// Weighted-edge placement objective (exposed for tests): sum of
/// weight * distance over edges plus the crowding penalty — the legacy
/// anneal's objective, bit for bit. Pays a one-off grid allocation per
/// call; graphine_place keeps one objective for a whole anneal instead.
[[nodiscard]] double placement_objective(
    const std::vector<double>& coords,
    const circuit::InteractionGraph& graph, const GraphineOptions& options);

/// Smallest radius r such that the graph "two points connected iff within r"
/// is connected: the maximum edge of the Euclidean minimum spanning tree.
[[nodiscard]] double bottleneck_connect_radius(
    const std::vector<geom::Point>& points);

/// Observability counters for one graphine_place call — excluded from any
/// serialized payload or fingerprint, like pass timings.
struct PlacementStats {
  std::int64_t evaluations = 0;        // full objective evaluations
  std::int64_t delta_evaluations = 0;  // incremental single-site scores
  int restarts = 0;
  int local_searches = 0;
  int iterations = 0;
  int chains = 1;
  /// Windowed-placement accounting (placement/windowed.hpp): total windows
  /// and how many were actually annealed here (the rest came from a cache
  /// hook). Both stay 0 on the single-anneal path.
  int windows = 0;
  int windows_annealed = 0;
  /// Portfolio accounting (empty unless portfolio_entrants > 0): the
  /// winning entrant's name and every entrant's budget spend.
  std::string portfolio_winner;
  std::vector<anneal::EntrantAccount> entrants;
};

/// Runs the annealed placement for a circuit's interaction graph. Throws
/// std::invalid_argument when chains > 1 or portfolio_entrants > 0 is set
/// without ProposalMode::kBatched.
[[nodiscard]] Topology graphine_place(const circuit::InteractionGraph& graph,
                                      const GraphineOptions& options = {});

/// Like above, additionally reporting annealer work counters (stats may be
/// null).
[[nodiscard]] Topology graphine_place(const circuit::InteractionGraph& graph,
                                      const GraphineOptions& options,
                                      PlacementStats* stats);

/// Process-wide count of graphine_place invocations (each is one annealing
/// run: about 1,000 full evaluations on the legacy path). Diagnostic hook:
/// the cache tests assert a warm sweep leaves it unchanged, and benches can
/// report anneals avoided.
[[nodiscard]] std::uint64_t annealing_invocations() noexcept;

/// Process-wide totals of full and incremental objective evaluations across
/// every anneal (perfbench's paper-suite reports a round's share).
[[nodiscard]] std::uint64_t objective_evaluations() noexcept;
[[nodiscard]] std::uint64_t delta_evaluations() noexcept;

}  // namespace parallax::placement
