#include "anneal/dual_annealing.hpp"

#include <math.h>  // lgamma_r

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>
#include <string>

namespace parallax::anneal {

namespace {

/// Rejects out-of-range options with a real error in release builds — the
/// same strictness util/parse applies to external input. Ranges follow
/// SciPy's dual_annealing parameter domain.
void validate(const std::vector<double>& lower,
              const std::vector<double>& upper, std::size_t n,
              const DualAnnealingOptions& options) {
  if (lower.size() != n || upper.size() != n) {
    throw std::invalid_argument(
        "dual_annealing: bounds must both have " + std::to_string(n) +
        " dimensions (got lower=" + std::to_string(lower.size()) +
        ", upper=" + std::to_string(upper.size()) + ")");
  }
  if (!(options.visit > 1.0) || !(options.visit < 3.0)) {
    throw std::invalid_argument(
        "dual_annealing: visit must be in (1, 3), got " +
        std::to_string(options.visit));
  }
  if (!(options.accept >= -1e4) || !(options.accept <= -5.0)) {
    throw std::invalid_argument(
        "dual_annealing: accept must be in [-1e4, -5], got " +
        std::to_string(options.accept));
  }
  if (!(options.initial_temperature > 0.0) ||
      !std::isfinite(options.initial_temperature)) {
    throw std::invalid_argument(
        "dual_annealing: initial_temperature must be positive and finite, "
        "got " +
        std::to_string(options.initial_temperature));
  }
  if (!(options.restart_temp_ratio > 0.0) ||
      !(options.restart_temp_ratio < 1.0)) {
    throw std::invalid_argument(
        "dual_annealing: restart_temp_ratio must be in (0, 1), got " +
        std::to_string(options.restart_temp_ratio));
  }
  if (options.max_iterations < 1) {
    throw std::invalid_argument(
        "dual_annealing: max_iterations must be >= 1, got " +
        std::to_string(options.max_iterations));
  }
  if (options.local_search_interval < 0) {
    throw std::invalid_argument(
        "dual_annealing: local_search_interval must be >= 0, got " +
        std::to_string(options.local_search_interval));
  }
  if (options.initial && options.initial->size() != n) {
    throw std::invalid_argument(
        "dual_annealing: initial state has " +
        std::to_string(options.initial->size()) + " dimensions, expected " +
        std::to_string(n));
  }
}

/// std::lgamma's value without its write to the global `signgam`, which
/// races whenever anneals run on several threads.
double log_gamma(double x) {
  int sign = 0;
  return lgamma_r(x, &sign);
}

/// Scale of the Tsallis visiting distribution with shape `qv`, following
/// the standard GSA formulation (Tsallis & Stariolo, 1996). Only factor1
/// depends on the temperature, so the full-vector anneal builds this once
/// and calls sigma() once per iteration. The legacy goldens pin this exact
/// expression sequence; VisitConstants::sigma reassociates it and differs
/// in the last bits.
struct LegacyVisitSigma {
  double qv;
  double factor2;
  double factor3;
  double factor6;

  explicit LegacyVisitSigma(double shape)
      : qv(shape),
        factor2(std::exp((4.0 - qv) * std::log(qv - 1.0))),
        factor3(
            std::exp((2.0 - qv) / (qv - 1.0) * std::log(2.0 / (3.0 - qv)))) {
    const double factor5 = 1.0 / (qv - 1.0) - 0.5;
    const double d1 = 2.0 - factor5;
    factor6 = std::numbers::pi * (1.0 - factor5) /
              std::sin(std::numbers::pi * (1.0 - factor5)) /
              std::exp(log_gamma(d1));
  }

  [[nodiscard]] double sigma(double temperature) const {
    const double factor1 = std::exp(std::log(temperature) / (qv - 1.0));
    const double factor4 = std::sqrt(std::numbers::pi) * factor1 * factor2 /
                           (factor3 * (3.0 - qv));
    return std::exp(-(qv - 1.0) * std::log(factor6 / factor4) / (3.0 - qv));
  }
};

/// Draws a step from the visiting distribution of scale `sigma_x`: a ratio
/// of a Gaussian (drawn first) to a power of another Gaussian's magnitude
/// (drawn second) produces the heavy-tailed visit.
double visit_step(util::Rng& rng, double qv, double sigma_x) {
  const double x = sigma_x * rng.normal();
  const double y = rng.normal();
  const double den =
      std::exp((qv - 1.0) * std::log(std::abs(y)) / (3.0 - qv));
  return den != 0.0 ? x / den : x;
}

/// Temperature-independent constants of the visiting distribution for the
/// single-coordinate path, which draws a million-plus steps per anneal:
/// LegacyVisitSigma's factors with factor4's product regrouped, so its
/// sigma differs from the legacy one in the last bits.
struct VisitConstants {
  double factor4_base = 0.0;  // factor4 without the factor1 term
  double factor6 = 0.0;
  double tail_exponent = 0.0;  // (qv - 1) / (3 - qv)

  explicit VisitConstants(double qv) {
    const double factor2 = std::exp((4.0 - qv) * std::log(qv - 1.0));
    const double factor3 =
        std::exp((2.0 - qv) / (qv - 1.0) * std::log(2.0 / (3.0 - qv)));
    factor4_base =
        std::sqrt(std::numbers::pi) * factor2 / (factor3 * (3.0 - qv));
    const double factor5 = 1.0 / (qv - 1.0) - 0.5;
    const double d1 = 2.0 - factor5;
    factor6 = std::numbers::pi * (1.0 - factor5) /
              std::sin(std::numbers::pi * (1.0 - factor5)) /
              std::exp(log_gamma(d1));
    tail_exponent = (qv - 1.0) / (3.0 - qv);
  }

  /// sigma_x at this temperature (legacy visit_step's value, reassembled).
  [[nodiscard]] double sigma(double qv, double temperature) const {
    const double factor1 = std::exp(std::log(temperature) / (qv - 1.0));
    return std::exp(-(qv - 1.0) *
                    std::log(factor6 / (factor4_base * factor1)) /
                    (3.0 - qv));
  }

  /// The heavy-tailed step assembled from two pre-drawn normals (the block
  /// stream's layout: numerator first, tail normal second).
  [[nodiscard]] double step_from(double num, double tail,
                                 double sigma_x) const {
    const double x = sigma_x * num;
    const double den = std::exp(tail_exponent * std::log(std::abs(tail)));
    return den != 0.0 ? x / den : x;
  }
};

/// Fills `out[0, count)` with standard normals via Box-Muller, keeping BOTH
/// halves of every pair (util::Rng::normal draws the same u1/u2 but discards
/// the sin half).
void fill_normals(util::Rng& rng, double* out, std::size_t count) {
  std::size_t i = 0;
  while (i < count) {
    double u1 = rng.next_double();
    while (u1 <= 0.0) u1 = rng.next_double();
    const double u2 = rng.next_double();
    const double r = std::sqrt(-2.0 * std::log(u1));
    out[i++] = r * std::cos(2.0 * std::numbers::pi * u2);
    if (i < count) out[i++] = r * std::sin(2.0 * std::numbers::pi * u2);
  }
}

}  // namespace

AnnealResult dual_annealing(const Objective& f,
                            const std::vector<double>& lower,
                            const std::vector<double>& upper,
                            const DualAnnealingOptions& options) {
  const std::size_t n = lower.size();
  validate(lower, upper, n, options);
  util::Rng rng(options.seed);

  auto clamp_wrap = [&](std::vector<double>& x) {
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = wrap_into_box(x[i], lower[i], upper[i]);
    }
  };

  std::vector<double> current(n);
  if (options.initial) {
    current = *options.initial;
    for (std::size_t i = 0; i < n; ++i) {
      current[i] = std::clamp(current[i], lower[i], upper[i]);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      current[i] = rng.uniform(lower[i], upper[i]);
    }
  }
  double current_value = f(current);

  AnnealResult best;
  best.x = current;
  best.value = current_value;
  best.evaluations = 1;

  const double t0 = options.initial_temperature;
  const double qv = options.visit;
  const double qa = options.accept;
  // GSA temperature schedule: T(k) = T0 * (2^{qv-1} - 1) /
  //                                   ((1+k)^{qv-1} - 1).
  const double t_coeff = std::pow(2.0, qv - 1.0) - 1.0;
  const LegacyVisitSigma visit(qv);

  std::vector<double> candidate(n);
  int accepted_since_local = 0;
  int k = 0;
  for (int iter = 0; iter < options.max_iterations; ++iter, ++k) {
    double temperature =
        t0 * t_coeff / (std::pow(static_cast<double>(k) + 2.0, qv - 1.0) - 1.0);
    if (temperature < t0 * options.restart_temp_ratio) {
      k = 0;  // reanneal from the hot end
      temperature = t0;
      ++best.restarts;
    }

    // Propose: perturb every dimension with a heavy-tailed visit.
    const double sigma_x = visit.sigma(temperature);
    candidate = current;
    for (std::size_t i = 0; i < n; ++i) {
      const double span = upper[i] - lower[i];
      double step = visit_step(rng, qv, sigma_x);
      // Scale the raw step to the box size; clamp pathological tails.
      step = std::clamp(step, -1e8, 1e8);
      candidate[i] += step * span * 1e-2;
    }
    clamp_wrap(candidate);
    const double candidate_value = f(candidate);
    ++best.evaluations;

    bool accept = false;
    if (candidate_value <= current_value) {
      accept = true;
    } else {
      // Generalized Metropolis acceptance (Tsallis statistics).
      const double t_accept = temperature / static_cast<double>(k + 1);
      const double delta = (candidate_value - current_value) / t_accept;
      const double base = 1.0 + (qa - 1.0) * delta;
      if (base > 0.0) {
        const double p = std::exp(std::log(base) / (1.0 - qa));
        accept = rng.next_double() < std::min(1.0, p);
      }
    }

    if (accept) {
      current.swap(candidate);
      current_value = candidate_value;
      ++accepted_since_local;
      if (current_value < best.value) {
        best.x = current;
        best.value = current_value;
      }
    }

    if (options.local_search_interval > 0 &&
        accepted_since_local >= options.local_search_interval) {
      accepted_since_local = 0;
      LocalResult local = nelder_mead(f, best.x, lower, upper,
                                      options.local_options);
      ++best.local_searches;
      best.evaluations += local.evaluations;
      if (local.value < best.value) {
        best.x = local.x;
        best.value = local.value;
        current = best.x;
        current_value = best.value;
      }
    }
    ++best.iterations;
  }

  // Final polish from the best state found.
  if (options.local_search_interval > 0) {
    LocalResult local =
        nelder_mead(f, best.x, lower, upper, options.local_options);
    ++best.local_searches;
    best.evaluations += local.evaluations;
    if (local.value < best.value) {
      best.x = local.x;
      best.value = local.value;
    }
  }
  return best;
}

AnnealResult dual_annealing(IncrementalObjective& objective,
                            const std::vector<double>& lower,
                            const std::vector<double>& upper,
                            const DualAnnealingOptions& options) {
  const std::size_t sites = objective.sites();
  const std::size_t n = 2 * sites;
  validate(lower, upper, n, options);

  AnnealResult best;
  if (sites == 0) {
    best.value = objective.reset({});
    best.evaluations = 1;
    return best;
  }
  util::Rng rng(options.seed);

  std::vector<double> current(n);
  if (options.initial) {
    current = *options.initial;
    for (std::size_t i = 0; i < n; ++i) {
      current[i] = std::clamp(current[i], lower[i], upper[i]);
    }
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      current[i] = rng.uniform(lower[i], upper[i]);
    }
  }
  double current_value = objective.reset(current);

  best.x = current;
  best.value = current_value;
  best.evaluations = 1;

  const double t0 = options.initial_temperature;
  const double qv = options.visit;
  const double qa = options.accept;
  const double t_coeff = std::pow(2.0, qv - 1.0) - 1.0;
  const VisitConstants visit(qv);

  // One outer iteration proposes `sites` single-site moves, so the local
  // search cadence scales with the site count to match the full-vector
  // mode's per-sweep rhythm.
  const std::int64_t local_interval =
      static_cast<std::int64_t>(options.local_search_interval) *
      static_cast<std::int64_t>(sites);
  std::int64_t accepted_since_local = 0;

  const auto run_local_search = [&] {
    // Lean simplex over the shared incremental interface: O(n) per
    // iteration bookkeeping, probes scored with objective.full() (the same
    // bits the incremental path maintains), so a local win reloads cleanly
    // via reset().
    LocalResult local =
        nelder_mead(objective, best.x, lower, upper, options.local_options);
    ++best.local_searches;
    best.evaluations += local.evaluations;
    if (local.value < best.value) {
      best.x = std::move(local.x);
      best.value = local.value;
      current = best.x;
      current_value = objective.reset(current);
      ++best.evaluations;
    }
  };

  // Proposal staging: every draw an outer iteration needs, in a fixed
  // layout (4 normals per site: x numerator, x tail, y numerator, y tail;
  // then one acceptance uniform per site), from a counter-based stream
  // keyed on the iteration number alone — so the accept loop below is
  // branch-light and the sequence never depends on acceptance history.
  std::vector<double> normals(4 * sites), uniforms(sites), steps(2 * sites);

  int k = 0;
  for (int iter = 0; iter < options.max_iterations; ++iter, ++k) {
    double temperature =
        t0 * t_coeff / (std::pow(static_cast<double>(k) + 2.0, qv - 1.0) - 1.0);
    if (temperature < t0 * options.restart_temp_ratio) {
      k = 0;
      temperature = t0;
      ++best.restarts;
    }
    const double sigma = visit.sigma(qv, temperature);
    const double t_accept = temperature / static_cast<double>(k + 1);

    // `iter` (not the reanneal-reset k) keys the block so every outer
    // iteration consumes a distinct stream.
    util::Rng block(util::derive_seed(options.seed, "visit-block",
                                      static_cast<std::uint64_t>(iter)));
    fill_normals(block, normals.data(), normals.size());
    for (std::size_t q = 0; q < sites; ++q) {
      uniforms[q] = block.next_double();
    }
    for (std::size_t j = 0; j < 2 * sites; ++j) {
      steps[j] = std::clamp(
          visit.step_from(normals[2 * j], normals[2 * j + 1], sigma), -1e8,
          1e8);
    }

    for (std::size_t q = 0; q < sites; ++q) {
      const std::size_t xi = 2 * q, yi = 2 * q + 1;
      const double cx = wrap_into_box(
          current[xi] + steps[xi] * (upper[xi] - lower[xi]) * 1e-2, lower[xi],
          upper[xi]);
      const double cy = wrap_into_box(
          current[yi] + steps[yi] * (upper[yi] - lower[yi]) * 1e-2, lower[yi],
          upper[yi]);
      const double candidate_value = objective.propose(q, cx, cy);
      ++best.delta_evaluations;

      bool accept = false;
      if (candidate_value <= current_value) {
        accept = true;
      } else {
        const double delta = (candidate_value - current_value) / t_accept;
        const double base = 1.0 + (qa - 1.0) * delta;
        if (base > 0.0) {
          const double p = std::exp(std::log(base) / (1.0 - qa));
          accept = uniforms[q] < std::min(1.0, p);
        }
      }

      if (accept) {
        objective.commit();
        current[xi] = cx;
        current[yi] = cy;
        current_value = candidate_value;
        ++accepted_since_local;
        if (current_value < best.value) {
          best.x = current;
          best.value = current_value;
        }
      }

      if (local_interval > 0 && accepted_since_local >= local_interval) {
        accepted_since_local = 0;
        run_local_search();
      }
    }
    ++best.iterations;
  }

  if (options.local_search_interval > 0) run_local_search();
  return best;
}

}  // namespace parallax::anneal
