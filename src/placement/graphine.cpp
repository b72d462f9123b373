#include "placement/graphine.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <deque>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "anneal/portfolio.hpp"
#include "geometry/uniform_grid.hpp"
#include "placement/objective.hpp"
#include "util/thread_pool.hpp"

namespace parallax::placement {

namespace {

/// The legacy placement objective with its scratch reused across calls.
/// The crowding term adds every pair closer than d_min in ascending (i, j)
/// order, the all-pairs loop's summation sequence, so the value is
/// bit-identical to that loop's; the pairs come from a uniform-grid scan
/// instead of all n^2 tests. One instance per anneal: not thread-safe.
class LegacyObjective {
 public:
  LegacyObjective(const circuit::InteractionGraph& graph,
                  const GraphineOptions& options)
      : graph_(graph),
        n_(static_cast<std::size_t>(graph.n_qubits())),
        d_min_(n_ > 1 ? options.crowding_distance /
                            std::sqrt(static_cast<double>(n_))
                      : 0.0),
        cutoff_(geom::detail::beyond_cutoff(d_min_)),
        crowding_weight_(options.crowding_weight),
        grid_(d_min_, n_),
        near_(n_) {}

  double operator()(const std::vector<double>& coords) {
    assert(coords.size() == 2 * n_);
    auto point = [&](std::size_t q) {
      return geom::Point{coords[2 * q], coords[2 * q + 1]};
    };

    double cost = 0.0;
    for (const auto& e : graph_.edges()) {
      cost += static_cast<double>(e.weight) *
              geom::distance(point(static_cast<std::size_t>(e.a)),
                             point(static_cast<std::size_t>(e.b)));
    }

    // Crowding penalty: soft minimum distance scaled by density so that the
    // layout spreads out. Quadratic in the violation. No distance is below
    // a non-positive or NaN d_min.
    if (!(d_min_ > 0.0)) return cost;
    grid_.assign(coords);
    for (std::size_t i = 0; i < n_; ++i) {
      const geom::Point p = point(i);
      // Candidates j > i the squared-distance bound cannot rule out, sorted
      // by insertion as they arrive (there are few), then the exact hypot
      // test in ascending j.
      std::size_t near = 0;
      grid_.for_each_row_span(
          grid_.cell(i), [&](const std::int32_t* row, std::size_t count) {
            for (std::size_t k = 0; k < count; ++k) {
              const std::int32_t j = row[k];
              if (static_cast<std::size_t>(j) <= i ||
                  geom::distance_sq(p, point(static_cast<std::size_t>(j))) >
                      cutoff_) {
                continue;
              }
              std::size_t at = near++;
              for (; at > 0 && near_[at - 1] > j; --at) {
                near_[at] = near_[at - 1];
              }
              near_[at] = j;
            }
          });
      for (std::size_t t = 0; t < near; ++t) {
        const double d =
            geom::distance(p, point(static_cast<std::size_t>(near_[t])));
        if (d < d_min_) {
          const double v = d_min_ - d;
          cost += crowding_weight_ * v * v / (d_min_ * d_min_);
        }
      }
    }
    return cost;
  }

 private:
  const circuit::InteractionGraph& graph_;
  std::size_t n_;
  double d_min_;
  double cutoff_;  // pairs farther than this squared distance skip hypot
  double crowding_weight_;
  geom::UniformGrid grid_;
  std::vector<std::int32_t> near_;  // one qubit's candidates, at most n - 1
};

}  // namespace

double placement_objective(const std::vector<double>& coords,
                           const circuit::InteractionGraph& graph,
                           const GraphineOptions& options) {
  return LegacyObjective(graph, options)(coords);
}

double bottleneck_connect_radius(const std::vector<geom::Point>& points) {
  const std::size_t n = points.size();
  if (n <= 1) return 0.0;
  // Prim's algorithm on the complete Euclidean graph; the answer is the
  // largest edge used, i.e. the bottleneck of the MST.
  std::vector<double> best(n, std::numeric_limits<double>::infinity());
  std::vector<char> used(n, 0);
  best[0] = 0.0;
  double bottleneck = 0.0;
  for (std::size_t step = 0; step < n; ++step) {
    std::size_t pick = n;
    double pick_d = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      if (!used[i] && best[i] < pick_d) {
        pick_d = best[i];
        pick = i;
      }
    }
    assert(pick < n);
    used[pick] = 1;
    bottleneck = std::max(bottleneck, pick_d);
    for (std::size_t i = 0; i < n; ++i) {
      if (!used[i]) {
        best[i] = std::min(best[i], geom::distance(points[pick], points[i]));
      }
    }
  }
  return bottleneck;
}

namespace {

/// Warm-start layout: BFS over the interaction graph from a low-degree
/// vertex (a chain endpoint, when there is one), laid out along a
/// serpentine curve over a sqrt(n) x sqrt(n) virtual grid. For structured
/// circuits (TFIM's chain, QEC's comb) this is already near-optimal; for
/// dense circuits it is merely a sane start the annealer improves on.
std::vector<double> serpentine_seed(const circuit::InteractionGraph& graph) {
  const auto n = static_cast<std::size_t>(graph.n_qubits());
  // Adjacency sorted by edge weight (heavy edges first in BFS expansion).
  std::vector<std::vector<std::pair<std::int64_t, std::int32_t>>> adj(n);
  for (const auto& e : graph.edges()) {
    adj[static_cast<std::size_t>(e.a)].push_back({e.weight, e.b});
    adj[static_cast<std::size_t>(e.b)].push_back({e.weight, e.a});
  }
  for (auto& list : adj) {
    std::sort(list.rbegin(), list.rend());
  }

  std::vector<std::int32_t> order;
  order.reserve(n);
  std::vector<char> seen(n, 0);
  // Visit components, each from its minimum-positive-degree vertex.
  for (;;) {
    std::int32_t start = -1;
    for (std::int32_t q = 0; q < graph.n_qubits(); ++q) {
      if (seen[static_cast<std::size_t>(q)]) continue;
      if (start < 0 || graph.partner_count(q) < graph.partner_count(start)) {
        start = q;
      }
    }
    if (start < 0) break;
    std::deque<std::int32_t> queue{start};
    seen[static_cast<std::size_t>(start)] = 1;
    while (!queue.empty()) {
      const std::int32_t q = queue.front();
      queue.pop_front();
      order.push_back(q);
      for (const auto& [w, next] : adj[static_cast<std::size_t>(q)]) {
        if (!seen[static_cast<std::size_t>(next)]) {
          seen[static_cast<std::size_t>(next)] = 1;
          queue.push_back(next);
        }
      }
    }
  }

  const auto side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  std::vector<double> coords(2 * n, 0.5);
  for (std::size_t rank = 0; rank < order.size(); ++rank) {
    const std::size_t row = rank / side;
    std::size_t col = rank % side;
    if (row % 2 == 1) col = side - 1 - col;  // serpentine
    const auto q = static_cast<std::size_t>(order[rank]);
    const double denom = static_cast<double>(std::max<std::size_t>(side - 1, 1));
    coords[2 * q] = static_cast<double>(col) / denom;
    coords[2 * q + 1] = static_cast<double>(row) / denom;
  }
  return coords;
}

/// Fixed portfolio roster, truncated to `entrants`: the anneal iteration
/// budget splits evenly across the annealing entrants (the mc entrant
/// further splits its share over its chains), and the polish entrant spends
/// only the local-search evaluation budget — so a full race costs about one
/// configured anneal. Entrant i explores from derive_seed(seed, "entrant",
/// i), so identically configured entrants still search independently.
std::vector<anneal::PortfolioEntrant> portfolio_roster(
    const anneal::DualAnnealingOptions& base, int entrants) {
  std::vector<anneal::PortfolioEntrant> roster;
  const int annealing_entrants = std::min(entrants, 4) - (entrants >= 3 ? 1 : 0);
  const int share =
      std::max(1, base.max_iterations / std::max(1, annealing_entrants));

  anneal::PortfolioEntrant delta;
  delta.name = "delta";
  delta.anneal = base;
  delta.anneal.max_iterations = share;
  roster.push_back(std::move(delta));

  if (entrants >= 2) {
    anneal::PortfolioEntrant mc;
    mc.name = "mc4";
    mc.anneal = base;
    mc.chains = 4;
    mc.anneal.max_iterations = std::max(1, share / mc.chains);
    roster.push_back(std::move(mc));
  }
  if (entrants >= 3) {
    anneal::PortfolioEntrant nm;
    nm.name = "nm";
    nm.anneal = base;
    nm.polish_only = true;
    roster.push_back(std::move(nm));
  }
  if (entrants >= 4) {
    anneal::PortfolioEntrant restart;
    restart.name = "restart";
    restart.anneal = base;
    restart.anneal.max_iterations = share;
    restart.fresh_start = true;
    roster.push_back(std::move(restart));
  }
  for (std::size_t i = 0; i < roster.size(); ++i) {
    roster[i].anneal.seed = util::derive_seed(base.seed, "entrant", i);
  }
  return roster;
}

}  // namespace

namespace {
std::atomic<std::uint64_t> g_annealing_invocations{0};
std::atomic<std::uint64_t> g_objective_evaluations{0};
std::atomic<std::uint64_t> g_delta_evaluations{0};
}  // namespace

std::uint64_t annealing_invocations() noexcept {
  return g_annealing_invocations.load(std::memory_order_relaxed);
}

std::uint64_t objective_evaluations() noexcept {
  return g_objective_evaluations.load(std::memory_order_relaxed);
}

std::uint64_t delta_evaluations() noexcept {
  return g_delta_evaluations.load(std::memory_order_relaxed);
}

Topology graphine_place(const circuit::InteractionGraph& graph,
                        const GraphineOptions& options) {
  return graphine_place(graph, options, nullptr);
}

Topology graphine_place(const circuit::InteractionGraph& graph,
                        const GraphineOptions& options,
                        PlacementStats* stats) {
  // Multi-chain and portfolio anneals walk the batched block stream; no
  // fingerprint ever named them with another proposal mode.
  if (options.proposal != ProposalMode::kBatched) {
    if (options.chains > 1) {
      throw std::invalid_argument(
          "graphine_place: chains > 1 requires ProposalMode::kBatched");
    }
    if (options.portfolio_entrants > 0) {
      throw std::invalid_argument(
          "graphine_place: portfolio_entrants > 0 requires "
          "ProposalMode::kBatched");
    }
  }
  g_annealing_invocations.fetch_add(1, std::memory_order_relaxed);
  const auto n = static_cast<std::size_t>(graph.n_qubits());
  Topology topology;
  topology.positions.resize(n);
  if (stats != nullptr) *stats = {};
  if (n == 0) return topology;
  if (n == 1) {
    topology.positions[0] = {0.5, 0.5};
    return topology;
  }

  const std::vector<double> lower(2 * n, 0.0);
  const std::vector<double> upper(2 * n, 1.0);

  anneal::DualAnnealingOptions anneal_options;
  anneal_options.max_iterations = options.anneal_iterations;
  anneal_options.local_options.max_evaluations =
      options.local_search_evaluations;
  anneal_options.seed = options.seed;
  if (options.warm_start) {
    anneal_options.initial = serpentine_seed(graph);
  }

  const bool portfolio = options.portfolio_entrants > 0;
  anneal::AnnealResult result;
  int chains_used = 1;
  if (options.proposal == ProposalMode::kFullVector) {
    // Legacy reference path — kept bit-for-bit so existing cache entries
    // and goldens replay unchanged.
    LegacyObjective legacy(graph, options);
    result = anneal::dual_annealing(
        [&legacy](const std::vector<double>& coords) { return legacy(coords); },
        lower, upper, anneal_options);
  } else {
    // Delta-cost path: the raced portfolio (the configured anneal budget
    // split across the roster, so one race costs about one single-optimizer
    // anneal) or one entrant of `chains` chains.
    anneal::PortfolioOptions race_options;
    if (portfolio) {
      race_options.entrants =
          portfolio_roster(anneal_options, options.portfolio_entrants);
    } else {
      chains_used = std::max(1, options.chains);
      anneal::PortfolioEntrant entrant;
      entrant.anneal = anneal_options;
      entrant.chains = chains_used;
      race_options.entrants.push_back(std::move(entrant));
    }
    std::size_t jobs = 0;
    for (const anneal::PortfolioEntrant& e : race_options.entrants) {
      jobs += static_cast<std::size_t>(e.chains);
    }
    // A transient pool, never the caller's: graphine_place runs on sweep
    // worker threads, and nesting parallel_for on the same pool would
    // deadlock. Pool size does not affect the (deterministic) winner.
    std::optional<util::ThreadPool> pool;
    if (jobs > 1) {
      const std::size_t hw = std::max(1u, std::thread::hardware_concurrency());
      race_options.pool = &pool.emplace(std::min(jobs, hw));
    }
    result = anneal::race(
        [&]() -> std::unique_ptr<anneal::IncrementalObjective> {
          return std::make_unique<DeltaPlacementObjective>(graph, options);
        },
        lower, upper, race_options);
  }
  g_objective_evaluations.fetch_add(
      static_cast<std::uint64_t>(result.evaluations),
      std::memory_order_relaxed);
  g_delta_evaluations.fetch_add(
      static_cast<std::uint64_t>(result.delta_evaluations),
      std::memory_order_relaxed);
  if (stats != nullptr) {
    stats->evaluations = result.evaluations;
    stats->delta_evaluations = result.delta_evaluations;
    stats->restarts = result.restarts;
    stats->local_searches = result.local_searches;
    stats->iterations = result.iterations;
    stats->chains = chains_used;
    if (portfolio) {
      stats->portfolio_winner = result.winner;
      stats->entrants = result.entrants;
    }
  }

  for (std::size_t q = 0; q < n; ++q) {
    topology.positions[q] = {result.x[2 * q], result.x[2 * q + 1]};
  }
  topology.interaction_radius = bottleneck_connect_radius(topology.positions);
  return topology;
}

}  // namespace parallax::placement
