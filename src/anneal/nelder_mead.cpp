#include "anneal/nelder_mead.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace parallax::anneal {

namespace {

constexpr double kAlpha = 1.0;  // reflection
constexpr double kGamma = 2.0;  // expansion
constexpr double kRho = 0.5;    // contraction
constexpr double kSigma = 0.5;  // shrink

void clamp_to_box(std::vector<double>& x, const std::vector<double>& lower,
                  const std::vector<double>& upper) {
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = std::clamp(x[i], lower[i], upper[i]);
  }
}

void validate_inputs(std::size_t n, const std::vector<double>& lower,
                     const std::vector<double>& upper,
                     const NelderMeadOptions& options) {
  if (n == 0) {
    throw std::invalid_argument("nelder_mead: x0 must be non-empty");
  }
  if (lower.size() != n || upper.size() != n) {
    throw std::invalid_argument(
        "nelder_mead: bounds must match the dimension of x0");
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (!(lower[i] <= upper[i])) {
      throw std::invalid_argument(
          "nelder_mead: every lower bound must be <= its upper bound");
    }
  }
  if (options.max_evaluations < 1) {
    throw std::invalid_argument("nelder_mead: max_evaluations must be >= 1");
  }
  if (!(options.x_tolerance > 0.0) || !(options.f_tolerance > 0.0)) {
    throw std::invalid_argument("nelder_mead: tolerances must be positive");
  }
  if (!(options.initial_step > 0.0)) {
    throw std::invalid_argument("nelder_mead: initial_step must be positive");
  }
}

/// Axis step for simplex vertex i, identical in both overloads: a fixed
/// fraction of the axis span, flipped inward at the upper bound.
double axis_step(double x, std::size_t i, const std::vector<double>& lower,
                 const std::vector<double>& upper,
                 const NelderMeadOptions& options) {
  const double span = upper[i] - lower[i];
  const double step = options.initial_step * (span > 0 ? span : 1.0);
  return (x + step <= upper[i]) ? step : -step;
}

}  // namespace

LocalResult nelder_mead(const Objective& f, std::vector<double> x0,
                        const std::vector<double>& lower,
                        const std::vector<double>& upper,
                        const NelderMeadOptions& options) {
  const std::size_t n = x0.size();
  validate_inputs(n, lower, upper, options);
  int evals = 0;
  auto eval = [&](std::vector<double>& x) {
    clamp_to_box(x, lower, upper);
    ++evals;
    return f(x);
  };

  // Flat vertex storage: row r of `verts` is vertex r, and `order` ranks
  // the rows, persisting from one iteration to the next. std::sort makes
  // the same comparisons and the same moves on indices compared by value
  // as on vertices compared by value, so the ranking (ties included), the
  // centroid's summation order and every iterate are those of a sorted
  // array of vertices: the legacy iterates are fingerprint-relevant.
  const std::size_t rows = n + 1;
  std::vector<double> verts(rows * n);
  std::vector<double> values(rows);
  std::vector<std::size_t> order(rows);
  std::iota(order.begin(), order.end(), std::size_t{0});
  auto row_of = [&](std::size_t r) { return verts.data() + r * n; };
  const auto by_value = [&](std::size_t a, std::size_t b) {
    return values[a] < values[b];
  };
  std::vector<double> xbuf(n), centroid(n), xr(n), xe(n), xc(n);
  auto store = [&](std::size_t r, const std::vector<double>& x, double fx) {
    std::copy(x.begin(), x.end(), row_of(r));
    values[r] = fx;
  };

  // Initial simplex: x0 plus a step along each axis.
  xbuf = x0;
  store(0, xbuf, eval(xbuf));
  for (std::size_t i = 0; i < n; ++i) {
    xbuf = x0;
    xbuf[i] += axis_step(xbuf[i], i, lower, upper, options);
    store(i + 1, xbuf, eval(xbuf));
  }

  while (evals < options.max_evaluations) {
    std::sort(order.begin(), order.end(), by_value);
    const std::size_t best = order.front();
    const std::size_t worst = order.back();

    // Convergence: value spread first (O(1)); the O(n^2) diameter scan only
    // runs once values have collapsed — the break needs BOTH below
    // tolerance, so short-circuiting cannot change the outcome.
    const double f_spread = std::abs(values[worst] - values[best]);
    if (f_spread < options.f_tolerance) {
      double x_spread = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        double lo = row_of(best)[i], hi = lo;
        for (const std::size_t r : order) {
          lo = std::min(lo, row_of(r)[i]);
          hi = std::max(hi, row_of(r)[i]);
        }
        x_spread = std::max(x_spread, hi - lo);
      }
      if (x_spread < options.x_tolerance) break;
    }

    // Centroid of all but the worst, summed in rank order.
    std::fill(centroid.begin(), centroid.end(), 0.0);
    for (std::size_t v = 0; v < n; ++v) {
      const double* x = row_of(order[v]);
      for (std::size_t i = 0; i < n; ++i) centroid[i] += x[i];
    }
    for (double& c : centroid) c /= static_cast<double>(n);

    const double* w = row_of(worst);
    auto blend = [&](double coeff, std::vector<double>& out) {
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = centroid[i] + coeff * (centroid[i] - w[i]);
      }
    };

    blend(kAlpha, xr);
    const double fr = eval(xr);
    if (fr < values[best]) {
      blend(kGamma, xe);
      const double fe = eval(xe);
      if (fe < fr) {
        store(worst, xe, fe);
      } else {
        store(worst, xr, fr);
      }
      continue;
    }
    if (fr < values[order[rows - 2]]) {
      store(worst, xr, fr);
      continue;
    }
    // Contraction (outside if reflected point improved on worst).
    const bool outside = fr < values[worst];
    blend(outside ? kRho : -kRho, xc);
    const double fc = eval(xc);
    if (fc < std::min(fr, values[worst])) {
      store(worst, xc, fc);
      continue;
    }
    // Shrink toward the best vertex, in rank order.
    const double* b = row_of(best);
    for (std::size_t v = 1; v < rows; ++v) {
      const double* x = row_of(order[v]);
      for (std::size_t i = 0; i < n; ++i) {
        xbuf[i] = b[i] + kSigma * (x[i] - b[i]);
      }
      store(order[v], xbuf, eval(xbuf));
    }
  }

  std::sort(order.begin(), order.end(), by_value);
  const std::size_t best = order.front();
  return LocalResult{std::vector<double>(row_of(best), row_of(best) + n),
                     values[best], evals};
}

LocalResult nelder_mead(IncrementalObjective& f, std::vector<double> x0,
                        const std::vector<double>& lower,
                        const std::vector<double>& upper,
                        const NelderMeadOptions& options) {
  const std::size_t n = x0.size();
  validate_inputs(n, lower, upper, options);
  if (n != 2 * f.sites()) {
    throw std::invalid_argument(
        "nelder_mead: x0 must have 2 * sites() coordinates");
  }
  int evals = 0;
  auto eval = [&](std::vector<double>& x) {
    clamp_to_box(x, lower, upper);
    ++evals;
    return f.full(x);
  };

  // Flat vertex storage: row r of `verts` is vertex r, never moved after
  // construction — ranking lives in `order` (indices sorted by value, ties
  // by index so the walk is deterministic). `total[i]` carries the sum of
  // coordinate i over ALL rows, so the all-but-worst centroid is one O(n)
  // pass instead of the legacy O(n^2) rebuild.
  const std::size_t rows = n + 1;
  std::vector<double> verts(rows * n);
  std::vector<double> values(rows);
  std::vector<std::size_t> order(rows);
  std::vector<double> total(n, 0.0);
  std::vector<double> xbuf(n), centroid(n), xr(n), xe(n), xc(n);
  auto row_of = [&](std::size_t r) { return verts.data() + r * n; };

  xbuf = x0;
  values[0] = eval(xbuf);
  std::copy(xbuf.begin(), xbuf.end(), row_of(0));
  for (std::size_t i = 0; i < n; ++i) {
    xbuf = x0;
    xbuf[i] += axis_step(xbuf[i], i, lower, upper, options);
    values[i + 1] = eval(xbuf);
    std::copy(xbuf.begin(), xbuf.end(), row_of(i + 1));
  }
  for (std::size_t r = 0; r < rows; ++r) {
    const double* v = row_of(r);
    for (std::size_t i = 0; i < n; ++i) total[i] += v[i];
  }
  std::iota(order.begin(), order.end(), std::size_t{0});
  const auto ranks_before = [&](std::size_t a, std::size_t b) {
    if (values[a] != values[b]) return values[a] < values[b];
    return a < b;
  };
  std::sort(order.begin(), order.end(), ranks_before);

  // Only the worst row changes, and it ranks last: re-rank it alone among
  // the others, which stay in order. The (value, index) order is total, so
  // the result is the one a full sort would give.
  auto replace_worst = [&](std::size_t worst, const std::vector<double>& x,
                           double fx) {
    double* w = row_of(worst);
    for (std::size_t i = 0; i < n; ++i) {
      total[i] += x[i] - w[i];
      w[i] = x[i];
    }
    values[worst] = fx;
    const auto last = order.end() - 1;
    std::rotate(std::upper_bound(order.begin(), last, worst, ranks_before),
                last, order.end());
  };

  while (evals < options.max_evaluations) {
    const std::size_t best = order.front();
    const std::size_t worst = order.back();
    const double f_spread = std::abs(values[worst] - values[best]);
    if (f_spread < options.f_tolerance) {
      double x_spread = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        double lo = row_of(best)[i], hi = lo;
        for (std::size_t r = 0; r < rows; ++r) {
          lo = std::min(lo, row_of(r)[i]);
          hi = std::max(hi, row_of(r)[i]);
        }
        x_spread = std::max(x_spread, hi - lo);
      }
      if (x_spread < options.x_tolerance) break;
    }

    const double* w = row_of(worst);
    for (std::size_t i = 0; i < n; ++i) {
      centroid[i] = (total[i] - w[i]) / static_cast<double>(n);
    }
    auto blend = [&](double coeff, std::vector<double>& out) {
      for (std::size_t i = 0; i < n; ++i) {
        out[i] = centroid[i] + coeff * (centroid[i] - w[i]);
      }
    };

    blend(kAlpha, xr);
    const double fr = eval(xr);
    if (fr < values[best]) {
      blend(kGamma, xe);
      const double fe = eval(xe);
      if (fe < fr) {
        replace_worst(worst, xe, fe);
      } else {
        replace_worst(worst, xr, fr);
      }
      continue;
    }
    if (fr < values[order[rows - 2]]) {
      replace_worst(worst, xr, fr);
      continue;
    }
    const bool outside = fr < values[worst];
    blend(outside ? kRho : -kRho, xc);
    const double fc = eval(xc);
    if (fc < std::min(fr, values[worst])) {
      replace_worst(worst, xc, fc);
      continue;
    }
    // Shrink toward the best row; totals are rebuilt once afterwards.
    const double* b = row_of(best);
    for (std::size_t ri = 1; ri < rows; ++ri) {
      const std::size_t r = order[ri];
      double* v = row_of(r);
      for (std::size_t i = 0; i < n; ++i) {
        xbuf[i] = b[i] + kSigma * (v[i] - b[i]);
      }
      values[r] = eval(xbuf);
      std::copy(xbuf.begin(), xbuf.end(), v);
    }
    std::fill(total.begin(), total.end(), 0.0);
    for (std::size_t r = 0; r < rows; ++r) {
      const double* v = row_of(r);
      for (std::size_t i = 0; i < n; ++i) total[i] += v[i];
    }
    std::sort(order.begin(), order.end(), ranks_before);
  }

  const std::size_t best = order.front();
  return LocalResult{std::vector<double>(row_of(best), row_of(best) + n),
                     values[best], evals};
}

}  // namespace parallax::anneal
