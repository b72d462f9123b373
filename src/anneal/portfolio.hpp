// Deterministic optimizer race: K configured entrants (single-chain dual
// annealing, K-chain annealing, Nelder-Mead polish, fresh restart) run on the
// same objective, each chain of each entrant as one job, and the winner is
// the first minimum of the final objective value in fixed job order
// (ascending entrant, then ascending chain; strict-<, so exact ties keep the
// earlier job). The winner is a pure function of (objective, bounds,
// options): thread count and completion order never influence it, so every
// technique built on it inherits content-addressed caching, sharding, and
// serving unchanged. A lone entrant with K chains is plain deterministic
// multi-chain annealing.
//
// Budgeting: each entrant carries its own DualAnnealingOptions — the roster
// builder (see placement::graphine) splits one anneal budget across the
// entrants so a race costs about as much as the single-chain run it
// replaces. Selection reads objective values only, never a clock.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "anneal/dual_annealing.hpp"
#include "anneal/objective.hpp"

namespace parallax::util {
class ThreadPool;
}  // namespace parallax::util

namespace parallax::anneal {

struct PortfolioEntrant {
  /// Stable display name ("delta", "mc4", "nm", "restart", ...); reported in
  /// AnnealResult::winner and the per-entrant accounts.
  std::string name;
  /// Entrant budget + schedule. `seed` is used verbatim by a single-chain
  /// entrant; roster builders derive distinct seeds for entrants that should
  /// explore independently.
  DualAnnealingOptions anneal{};
  /// Independent chains; at least 1. With more than one, chain c runs with
  /// derive_seed(anneal.seed, "chain", c), and each chain is its own job.
  int chains = 1;
  /// Skip annealing entirely: one lean Nelder-Mead descent from the warm
  /// start (budgeted by anneal.local_options.max_evaluations).
  bool polish_only = false;
  /// Drop the shared warm start and explore from the entrant's own uniform
  /// draw.
  bool fresh_start = false;
};

struct PortfolioOptions {
  /// At least one entrant; selection prefers earlier jobs on exact ties.
  std::vector<PortfolioEntrant> entrants;
  /// Optional borrowed pool: jobs fan out across it (the caller must not
  /// race from one of the pool's own workers — parallel_for blocks). Null
  /// runs jobs sequentially; the winner is identical either way.
  util::ThreadPool* pool = nullptr;
};

/// Races the configured entrants, each job over a fresh objective from
/// `make_objective` (jobs mutate their objective). Returns the winning job's
/// AnnealResult with `winner` set to its entrant's name and `entrants`
/// holding every entrant's accounting; its evaluations, delta_evaluations,
/// restarts and local_searches total the whole race's spend. Throws
/// std::invalid_argument for an empty roster, a non-positive chain count,
/// or invalid entrant options.
[[nodiscard]] AnnealResult race(
    const std::function<std::unique_ptr<IncrementalObjective>()>&
        make_objective,
    const std::vector<double>& lower, const std::vector<double>& upper,
    const PortfolioOptions& options);

}  // namespace parallax::anneal
