// Dual annealing: generalized simulated annealing (GSA, Tsallis-statistics
// visiting distribution) combined with periodic local search, following
// Xiang et al. and the SciPy `dual_annealing` optimizer that GRAPHINE uses
// for qubit placement. The broad Cauchy-like visits explore the whole
// landscape early; the schedule cools toward precise local refinement.
//
// Two proposal modes share the schedule and acceptance rule:
//   * full-vector (the reference implementation): every dimension is
//     perturbed per iteration and the objective re-scored from scratch;
//   * single-coordinate (IncrementalObjective overload): one site moves per
//     proposal and only its delta is re-scored — one outer iteration sweeps
//     every site, so an "iteration" explores comparably but each proposal
//     costs O(local interactions). Each outer iteration draws all of its
//     visit normals and acceptance uniforms up front from a counter-based
//     stream (derive_seed(seed, "visit-block", iteration)), so the accept
//     loop carries no RNG calls and the draw order is independent of
//     acceptance decisions; local search uses the lean incremental
//     Nelder-Mead overload.
#pragma once

#include <cmath>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "anneal/nelder_mead.hpp"
#include "anneal/objective.hpp"
#include "util/rng.hpp"

namespace parallax::anneal {

struct DualAnnealingOptions {
  /// Visiting-distribution shape parameter q_v in (1, 3). 2.62 is the SciPy
  /// default; larger means heavier tails (wider jumps).
  double visit = 2.62;
  /// Acceptance parameter q_a in [-1e4, -5] (negative favors downhill moves
  /// strongly).
  double accept = -5.0;
  /// Initial temperature; must be positive and finite.
  double initial_temperature = 5230.0;
  /// Temperature restart threshold (relative, in (0, 1)); annealing restarts
  /// from the initial temperature when T falls below initial * ratio.
  double restart_temp_ratio = 2e-5;
  /// Total annealing iterations (global search sweeps); at least 1.
  int max_iterations = 1000;
  /// Run the local minimizer every `local_search_interval` accepted moves
  /// (0 disables local search entirely). The single-coordinate mode scales
  /// the interval by the site count so both modes refine at a comparable
  /// per-sweep cadence.
  int local_search_interval = 50;
  NelderMeadOptions local_options{};
  std::uint64_t seed = 0x5eedULL;
  /// Optional warm start. When set, annealing begins from this state
  /// instead of a uniform random draw (and the final answer is never worse
  /// than the local refinement of this state).
  std::optional<std::vector<double>> initial;
};

/// Per-optimizer accounting of a portfolio race (see anneal/portfolio.hpp).
struct EntrantAccount {
  std::string name;
  double value = 0.0;
  std::int64_t evaluations = 0;
  std::int64_t delta_evaluations = 0;
  bool winner = false;
};

struct AnnealResult {
  std::vector<double> x;
  double value = 0.0;
  int iterations = 0;
  int local_searches = 0;
  /// Full objective evaluations (initial score, full-vector proposals,
  /// Nelder-Mead probes, reloads after local search).
  std::int64_t evaluations = 0;
  /// Incremental single-site evaluations (zero in full-vector mode).
  std::int64_t delta_evaluations = 0;
  /// Times the temperature schedule re-annealed from the hot end.
  int restarts = 0;
  /// Portfolio accounting, filled only by anneal::race: the winning
  /// entrant's name and every entrant's budget spend.
  std::string winner;
  std::vector<EntrantAccount> entrants;
};

/// `v` wrapped into [lo, hi): lo + (v - lo) mod (hi - lo), or lo when the
/// box is empty. GSA wraps out-of-box coordinates back into the box (SciPy
/// does the same) so boundary states are not oversampled. std::fmod is
/// exact, so on [+0, span) it returns its argument: an in-box coordinate
/// skips it, and -0.0 and NaN take the full expression.
[[nodiscard]] inline double wrap_into_box(double v, double lo,
                                          double hi) noexcept {
  const double span = hi - lo;
  if (span <= 0.0) return lo;
  double w = v - lo;
  if (std::signbit(w) || !(w < span)) {
    w = std::fmod(w, span);
    if (w < 0) w += span;
  }
  return lo + w;
}

/// Minimizes `f` over the box [lower, upper]^n (full-vector proposals).
/// Throws std::invalid_argument for out-of-range options or mismatched
/// bounds.
[[nodiscard]] AnnealResult dual_annealing(const Objective& f,
                                          const std::vector<double>& lower,
                                          const std::vector<double>& upper,
                                          const DualAnnealingOptions& options =
                                              {});

/// Single-coordinate mode: minimizes `objective` over the box (bounds sized
/// 2 * objective.sites(), interleaved x,y). Each outer iteration proposes
/// one heavy-tailed move per site from its pre-drawn block, scored
/// incrementally; local search probes the exact full() objective. Same
/// option validation as above.
[[nodiscard]] AnnealResult dual_annealing(IncrementalObjective& objective,
                                          const std::vector<double>& lower,
                                          const std::vector<double>& upper,
                                          const DualAnnealingOptions& options =
                                              {});

}  // namespace parallax::anneal
