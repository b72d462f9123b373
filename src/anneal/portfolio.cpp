#include "anneal/portfolio.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "anneal/nelder_mead.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace parallax::anneal {

namespace {

/// Polish-only entrant: one lean Nelder-Mead descent from the entrant's
/// start state (warm start when present, else its own uniform draw).
AnnealResult run_polish(IncrementalObjective& objective,
                        const std::vector<double>& lower,
                        const std::vector<double>& upper,
                        const DualAnnealingOptions& opts) {
  AnnealResult out;
  const std::size_t n = 2 * objective.sites();
  if (n == 0) {
    out.value = objective.reset({});
    out.evaluations = 1;
    return out;
  }
  std::vector<double> start(n);
  if (opts.initial) {
    if (opts.initial->size() != n) {
      throw std::invalid_argument(
          "race: polish entrant initial state has " +
          std::to_string(opts.initial->size()) + " dimensions, expected " +
          std::to_string(n));
    }
    start = *opts.initial;
    for (std::size_t i = 0; i < n; ++i) {
      start[i] = std::clamp(start[i], lower[i], upper[i]);
    }
  } else {
    util::Rng rng(opts.seed);
    for (std::size_t i = 0; i < n; ++i) {
      start[i] = rng.uniform(lower[i], upper[i]);
    }
  }
  const LocalResult local =
      nelder_mead(objective, std::move(start), lower, upper,
                  opts.local_options);
  out.x = local.x;
  out.value = local.value;
  out.evaluations = local.evaluations;
  out.local_searches = 1;
  return out;
}

}  // namespace

AnnealResult race(
    const std::function<std::unique_ptr<IncrementalObjective>()>&
        make_objective,
    const std::vector<double>& lower, const std::vector<double>& upper,
    const PortfolioOptions& options) {
  if (options.entrants.empty()) {
    throw std::invalid_argument("race: at least one entrant is required");
  }
  for (const PortfolioEntrant& e : options.entrants) {
    if (e.chains < 1) {
      throw std::invalid_argument("race: entrant '" + e.name +
                                  "' has chains < 1");
    }
  }

  // One job per (entrant, chain), entrant-major — the selection order.
  struct Job {
    std::size_t entrant = 0;
    int chain = 0;
    std::uint64_t seed = 0;
  };
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < options.entrants.size(); ++i) {
    const PortfolioEntrant& e = options.entrants[i];
    for (int c = 0; c < e.chains; ++c) {
      jobs.push_back({i, c,
                      e.chains > 1
                          ? util::derive_seed(e.anneal.seed, "chain",
                                              static_cast<std::uint64_t>(c))
                          : e.anneal.seed});
    }
  }

  std::vector<AnnealResult> results(jobs.size());
  const auto run_job = [&](std::size_t j) {
    const PortfolioEntrant& e = options.entrants[jobs[j].entrant];
    DualAnnealingOptions opts = e.anneal;
    opts.seed = jobs[j].seed;
    if (e.fresh_start) opts.initial.reset();

    const std::unique_ptr<IncrementalObjective> objective = make_objective();
    results[j] = e.polish_only ? run_polish(*objective, lower, upper, opts)
                               : dual_annealing(*objective, lower, upper, opts);
  };

  if (options.pool != nullptr && jobs.size() > 1) {
    options.pool->parallel_for(jobs.size(), run_job);
  } else {
    for (std::size_t j = 0; j < jobs.size(); ++j) run_job(j);
  }

  // Fixed selection order: the first minimum in job order, strict `<` only.
  std::size_t winner = 0;
  for (std::size_t j = 1; j < jobs.size(); ++j) {
    if (results[j].value < results[winner].value) winner = j;
  }

  std::vector<EntrantAccount> accounts(options.entrants.size());
  AnnealResult totals;
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    const AnnealResult& r = results[j];
    EntrantAccount& account = accounts[jobs[j].entrant];
    if (jobs[j].chain == 0 || r.value < account.value) account.value = r.value;
    account.evaluations += r.evaluations;
    account.delta_evaluations += r.delta_evaluations;
    totals.evaluations += r.evaluations;
    totals.delta_evaluations += r.delta_evaluations;
    totals.restarts += r.restarts;
    totals.local_searches += r.local_searches;
  }
  for (std::size_t i = 0; i < accounts.size(); ++i) {
    accounts[i].name = options.entrants[i].name;
    accounts[i].winner = i == jobs[winner].entrant;
  }

  AnnealResult best = std::move(results[winner]);
  best.evaluations = totals.evaluations;
  best.delta_evaluations = totals.delta_evaluations;
  best.restarts = totals.restarts;
  best.local_searches = totals.local_searches;
  best.winner = options.entrants[jobs[winner].entrant].name;
  best.entrants = std::move(accounts);
  return best;
}

}  // namespace parallax::anneal
