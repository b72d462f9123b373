// Optimizer tests: Nelder-Mead convergence on standard functions and dual
// annealing's ability to escape local minima and respect box constraints.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "anneal/dual_annealing.hpp"
#include "anneal/nelder_mead.hpp"
#include "anneal/objective.hpp"
#include "anneal/portfolio.hpp"
#include "util/exact_sum.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pa = parallax::anneal;

namespace {
double sphere(const std::vector<double>& x) {
  double s = 0.0;
  for (double v : x) s += v * v;
  return s;
}

double rosenbrock(const std::vector<double>& x) {
  double s = 0.0;
  for (std::size_t i = 0; i + 1 < x.size(); ++i) {
    const double a = x[i + 1] - x[i] * x[i];
    const double b = 1.0 - x[i];
    s += 100.0 * a * a + b * b;
  }
  return s;
}

/// Rastrigin: many local minima, global minimum 0 at the origin.
double rastrigin(const std::vector<double>& x) {
  double s = 10.0 * static_cast<double>(x.size());
  for (double v : x) s += v * v - 10.0 * std::cos(2.0 * M_PI * v);
  return s;
}
}  // namespace

TEST(NelderMead, MinimizesSphere) {
  const std::vector<double> lower(3, -10.0), upper(3, 10.0);
  const auto result =
      pa::nelder_mead(sphere, {4.0, -3.0, 2.0}, lower, upper);
  EXPECT_LT(result.value, 1e-6);
}

TEST(NelderMead, MinimizesRosenbrock2D) {
  const std::vector<double> lower(2, -5.0), upper(2, 5.0);
  pa::NelderMeadOptions options;
  options.max_evaluations = 20000;
  const auto result =
      pa::nelder_mead(rosenbrock, {-1.2, 1.0}, lower, upper, options);
  EXPECT_LT(result.value, 1e-4);
  EXPECT_NEAR(result.x[0], 1.0, 0.05);
  EXPECT_NEAR(result.x[1], 1.0, 0.05);
}

TEST(NelderMead, RespectsBoxConstraints) {
  // Unconstrained minimum at (-3, -3) but the box is [0, 5]^2: the result
  // must stay inside the box and approach its corner.
  auto shifted = [](const std::vector<double>& x) {
    return (x[0] + 3) * (x[0] + 3) + (x[1] + 3) * (x[1] + 3);
  };
  const std::vector<double> lower(2, 0.0), upper(2, 5.0);
  const auto result = pa::nelder_mead(shifted, {4.0, 4.0}, lower, upper);
  EXPECT_GE(result.x[0], 0.0);
  EXPECT_GE(result.x[1], 0.0);
  EXPECT_NEAR(result.x[0], 0.0, 0.05);
  EXPECT_NEAR(result.x[1], 0.0, 0.05);
}

TEST(NelderMead, ReportsEvaluationCount) {
  const std::vector<double> lower(2, -1.0), upper(2, 1.0);
  pa::NelderMeadOptions options;
  options.max_evaluations = 100;
  const auto result = pa::nelder_mead(sphere, {0.5, 0.5}, lower, upper, options);
  EXPECT_GT(result.evaluations, 0);
  EXPECT_LE(result.evaluations, 110);  // a final shrink may slightly overshoot
}

TEST(DualAnnealing, MinimizesSphere) {
  const std::vector<double> lower(4, -10.0), upper(4, 10.0);
  pa::DualAnnealingOptions options;
  options.max_iterations = 500;
  options.seed = 1;
  const auto result = pa::dual_annealing(sphere, lower, upper, options);
  EXPECT_LT(result.value, 1e-4);
}

TEST(DualAnnealing, EscapesRastriginLocalMinima) {
  const std::vector<double> lower(2, -5.12), upper(2, 5.12);
  pa::DualAnnealingOptions options;
  options.max_iterations = 2000;
  options.seed = 7;
  const auto result = pa::dual_annealing(rastrigin, lower, upper, options);
  // Plain local search from a random start lands in one of the many local
  // minima (value >= ~1); dual annealing should find the global basin.
  EXPECT_LT(result.value, 1.0);
}

TEST(DualAnnealing, StaysInsideBox) {
  const std::vector<double> lower(3, 2.0), upper(3, 3.0);
  pa::DualAnnealingOptions options;
  options.max_iterations = 300;
  options.seed = 3;
  const auto result = pa::dual_annealing(sphere, lower, upper, options);
  for (double v : result.x) {
    EXPECT_GE(v, 2.0);
    EXPECT_LE(v, 3.0);
  }
  // Constrained minimum of the sphere on [2,3]^3 is at (2,2,2).
  EXPECT_NEAR(result.value, 12.0, 0.1);
}

TEST(DualAnnealing, DeterministicForSeed) {
  const std::vector<double> lower(2, -5.0), upper(2, 5.0);
  pa::DualAnnealingOptions options;
  options.max_iterations = 200;
  options.seed = 42;
  const auto a = pa::dual_annealing(rastrigin, lower, upper, options);
  const auto b = pa::dual_annealing(rastrigin, lower, upper, options);
  EXPECT_EQ(a.value, b.value);
  EXPECT_EQ(a.x, b.x);
}

TEST(DualAnnealing, LocalSearchCanBeDisabled) {
  const std::vector<double> lower(2, -5.0), upper(2, 5.0);
  pa::DualAnnealingOptions options;
  options.max_iterations = 200;
  options.local_search_interval = 0;
  options.seed = 5;
  const auto result = pa::dual_annealing(sphere, lower, upper, options);
  EXPECT_EQ(result.local_searches, 0);
  EXPECT_LT(result.value, 1.0);  // coarse but in the basin
}

// --- Option validation (release-build errors, not debug asserts) ----------

TEST(DualAnnealing, RejectsOutOfRangeOptions) {
  const std::vector<double> lower(2, -1.0), upper(2, 1.0);
  const auto run = [&](auto mutate) {
    pa::DualAnnealingOptions options;
    options.max_iterations = 10;
    mutate(options);
    return pa::dual_annealing(sphere, lower, upper, options);
  };
  EXPECT_THROW((void)run([](auto& o) { o.visit = 1.0; }),
               std::invalid_argument);
  EXPECT_THROW((void)run([](auto& o) { o.visit = 3.0; }),
               std::invalid_argument);
  EXPECT_THROW((void)run([](auto& o) { o.accept = -4.0; }),
               std::invalid_argument);
  EXPECT_THROW((void)run([](auto& o) { o.accept = -1e5; }),
               std::invalid_argument);
  EXPECT_THROW((void)run([](auto& o) { o.initial_temperature = 0.0; }),
               std::invalid_argument);
  EXPECT_THROW((void)run([](auto& o) { o.restart_temp_ratio = 0.0; }),
               std::invalid_argument);
  EXPECT_THROW((void)run([](auto& o) { o.restart_temp_ratio = 1.0; }),
               std::invalid_argument);
  EXPECT_THROW((void)run([](auto& o) { o.max_iterations = 0; }),
               std::invalid_argument);
  EXPECT_THROW((void)run([](auto& o) { o.local_search_interval = -1; }),
               std::invalid_argument);
  EXPECT_THROW((void)run([](auto& o) { o.initial = std::vector<double>{0.0}; }),
               std::invalid_argument);
}

TEST(DualAnnealing, RejectsMismatchedBounds) {
  EXPECT_THROW(
      (void)pa::dual_annealing(sphere, {-1.0, -1.0}, {1.0}, {}),
      std::invalid_argument);
}

TEST(DualAnnealing, ReportsWorkCounters) {
  pa::DualAnnealingOptions options;
  options.max_iterations = 50;
  options.seed = 3;
  const auto result =
      pa::dual_annealing(sphere, {-5.0, -5.0}, {5.0, 5.0}, options);
  // Full-vector mode: the initial score plus one evaluation per iteration
  // plus the Nelder-Mead probes; no incremental evaluations exist here.
  EXPECT_GE(result.evaluations, 1 + result.iterations);
  EXPECT_EQ(result.delta_evaluations, 0);
  EXPECT_GE(result.restarts, 0);
}

TEST(DualAnnealing, WrapIntoBoxMatchesTheFmodFormBitForBit) {
  // The wrap both annealers spelled out before the in-box shortcut.
  const auto fmod_form = [](double v, double lo, double hi) {
    const double span = hi - lo;
    if (span <= 0.0) return lo;
    double w = std::fmod(v - lo, span);
    if (w < 0) w += span;
    return lo + w;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::pair<double, double> boxes[] = {
      {0.0, 1.0},   {0.0, 35.0}, {-3.5, 7.25}, {1e-3, 2e-3}, {2.0, 2.0},
      {5.0, 1.0},   {0.0, inf},  {-inf, 0.0},  {0.0, nan},   {-1e300, 1e300},
  };
  std::mt19937_64 rng(0xF30D);
  std::uniform_real_distribution<double> uniform(-3.0, 3.0);
  for (const auto& [lo, hi] : boxes) {
    const double span = hi - lo;
    std::vector<double> offsets = {
        0.0,  -0.0, std::nextafter(span, 0.0), span, 2 * span, -span,
        1e300, -1e300, nan, -nan, inf, -inf, std::nextafter(0.0, 1.0),
        -std::nextafter(0.0, 1.0)};
    for (int i = 0; i < 500; ++i) offsets.push_back(uniform(rng) * span);
    for (int i = 0; i < 500; ++i) {
      offsets.push_back(std::bit_cast<double>(static_cast<std::uint64_t>(rng())));
    }
    for (const double offset : offsets) {
      for (const double v : {offset, lo + offset}) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(pa::wrap_into_box(v, lo, hi)),
                  std::bit_cast<std::uint64_t>(fmod_form(v, lo, hi)))
            << "v=" << v << " box=[" << lo << ", " << hi << ")";
      }
    }
  }
}

TEST(DualAnnealing, FullVectorResultsAreByteStable) {
  // Exact bit patterns of the full-vector overload, outside placement: two
  // visit shapes per function, restart-forcing ratios, local search on and
  // off. Any change to the visit draws, the schedule or the acceptance
  // arithmetic moves at least one of these bits.
  struct Golden {
    const char* name;
    pa::Objective f;
    double bound;
    double visit;
    double restart_temp_ratio;
    int local_search_interval;
    int max_iterations;
    std::uint64_t seed;
    int restarts;
    std::int64_t evaluations;
    std::uint64_t value;
    std::vector<std::uint64_t> x;
  };
  const std::vector<Golden> goldens{
      {"rastrigin6/visit2.62/local", rastrigin, 5.12, 2.62, 2e-5, 50, 400, 11,
       0, 1099, 0x402dd9471f3ca1a5ULL,
       {0x3fffd6ae364533d4ULL, 0xbfefd6b37ed46330ULL, 0x3fefd6b380dda679ULL,
        0xbfffd6ae366818c8ULL, 0xbfefd6b3804b8a76ULL, 0xbfffd6ae36345a5cULL}},
      {"rastrigin6/visit1.5/restarts", rastrigin, 5.12, 1.5, 0.5, 0, 400, 12,
       199, 401, 0x40461d857a0fa4b7ULL,
       {0xc0060ca4f9dc349eULL, 0x40008aa6568b71caULL, 0x3feb4ca12569aed0ULL,
        0xbfef983287115318ULL, 0x4006905ea4b3cceeULL, 0xbfbd480ce44f8140ULL}},
      {"rosenbrock4/visit2.9/restarts/local", rosenbrock, 2.0, 2.9, 0.2, 20,
       300, 13, 99, 5384, 0x3c6035f5d58f9c40ULL,
       {0x3fefffffffca64eaULL, 0x3fefffffff9ed438ULL, 0x3fefffffff59ad22ULL,
        0x3feffffffeb9dc4aULL}},
      {"rosenbrock4/visit1.8", rosenbrock, 2.0, 1.8, 2e-5, 0, 300, 14, 0, 301,
       0x4037b5d91df58b4aULL,
       {0x3ff33639852bc8e8ULL, 0x3ff0c8d8214f4f78ULL, 0x3ff4a6d8403cdf9cULL,
        0x3ff73f45eb3ed8feULL}},
  };
  for (const Golden& g : goldens) {
    SCOPED_TRACE(g.name);
    pa::DualAnnealingOptions options;
    options.visit = g.visit;
    options.restart_temp_ratio = g.restart_temp_ratio;
    options.local_search_interval = g.local_search_interval;
    options.max_iterations = g.max_iterations;
    options.seed = g.seed;
    const std::vector<double> lower(g.x.size(), -g.bound);
    const std::vector<double> upper(g.x.size(), g.bound);
    const auto result = pa::dual_annealing(g.f, lower, upper, options);
    EXPECT_EQ(result.restarts, g.restarts);
    EXPECT_EQ(result.evaluations, g.evaluations);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(result.value), g.value);
    ASSERT_EQ(result.x.size(), g.x.size());
    for (std::size_t i = 0; i < g.x.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(result.x[i]), g.x[i])
          << "x[" << i << "]";
    }
  }
}

// --- Single-coordinate (incremental) mode ---------------------------------

namespace {

/// Minimal incremental objective: sum of squared coordinates, kept exact
/// with util::ExactSum so delta updates are bit-identical to full rescoring.
class IncrementalSphere final : public pa::IncrementalObjective {
 public:
  explicit IncrementalSphere(std::size_t sites) : coords_(2 * sites, 0.0) {}

  [[nodiscard]] std::size_t sites() const noexcept override {
    return coords_.size() / 2;
  }

  double reset(const std::vector<double>& coords) override {
    coords_ = coords;
    acc_ = parallax::util::ExactSum();
    for (const double c : coords_) acc_.add(c * c);
    value_ = acc_.round();
    return value_;
  }

  [[nodiscard]] double value() const noexcept override { return value_; }

  double propose(std::size_t q, double x, double y) override {
    pending_q_ = q;
    pending_x_ = x;
    pending_y_ = y;
    parallax::util::ExactSum trial = acc_;
    trial.subtract(coords_[2 * q] * coords_[2 * q]);
    trial.subtract(coords_[2 * q + 1] * coords_[2 * q + 1]);
    trial.add(x * x);
    trial.add(y * y);
    pending_value_ = trial.round();
    pending_acc_ = trial;
    return pending_value_;
  }

  void commit() override {
    coords_[2 * pending_q_] = pending_x_;
    coords_[2 * pending_q_ + 1] = pending_y_;
    acc_ = pending_acc_;
    value_ = pending_value_;
  }

  void snapshot(std::vector<double>& coords) const override {
    coords = coords_;
  }

  double full(const std::vector<double>& coords) override {
    parallax::util::ExactSum sum;
    for (const double c : coords) sum.add(c * c);
    return sum.round();
  }

 private:
  std::vector<double> coords_;
  parallax::util::ExactSum acc_, pending_acc_;
  double value_ = 0.0, pending_value_ = 0.0;
  std::size_t pending_q_ = 0;
  double pending_x_ = 0.0, pending_y_ = 0.0;
};

}  // namespace

TEST(DualAnnealingIncremental, MinimizesSphereWithinBox) {
  IncrementalSphere objective(4);
  const std::vector<double> lower(8, -5.0), upper(8, 5.0);
  pa::DualAnnealingOptions options;
  options.max_iterations = 300;
  options.seed = 11;
  const auto result = pa::dual_annealing(objective, lower, upper, options);
  EXPECT_LT(result.value, 1e-6);
  ASSERT_EQ(result.x.size(), 8u);
  for (const double c : result.x) {
    EXPECT_GE(c, -5.0);
    EXPECT_LE(c, 5.0);
  }
  // Incremental mode pays one delta evaluation per site per iteration.
  EXPECT_GT(result.delta_evaluations, 0);
  EXPECT_GE(result.evaluations, 1);
}

TEST(DualAnnealingIncremental, DeterministicForSeedAndHonorsWarmStart) {
  const std::vector<double> lower(6, -2.0), upper(6, 2.0);
  pa::DualAnnealingOptions options;
  options.max_iterations = 120;
  options.seed = 21;
  IncrementalSphere a(3), b(3);
  const auto ra = pa::dual_annealing(a, lower, upper, options);
  const auto rb = pa::dual_annealing(b, lower, upper, options);
  EXPECT_EQ(ra.x, rb.x);
  EXPECT_EQ(ra.value, rb.value);
  options.initial = std::vector<double>(6, 0.0);  // the global minimum
  IncrementalSphere c(3);
  const auto rc = pa::dual_annealing(c, lower, upper, options);
  EXPECT_LE(rc.value, 1e-12);
}

TEST(DualAnnealingIncremental, ResultMatchesObjectiveFullRescore) {
  IncrementalSphere objective(5);
  const std::vector<double> lower(10, -3.0), upper(10, 3.0);
  pa::DualAnnealingOptions options;
  options.max_iterations = 80;
  options.seed = 9;
  const auto result = pa::dual_annealing(objective, lower, upper, options);
  IncrementalSphere oracle(5);
  EXPECT_EQ(result.value, oracle.full(result.x));
}

// --- Lean Nelder-Mead over the incremental interface ----------------------

TEST(NelderMeadLean, MinimizesIncrementalSphere) {
  IncrementalSphere objective(3);
  const std::vector<double> lower(6, -10.0), upper(6, 10.0);
  const auto result = pa::nelder_mead(
      objective, {4.0, -3.0, 2.0, -1.0, 0.5, 1.5}, lower, upper);
  EXPECT_LT(result.value, 1e-6);
  EXPECT_GT(result.evaluations, 0);
  ASSERT_EQ(result.x.size(), 6u);
  for (const double c : result.x) {
    EXPECT_GE(c, -10.0);
    EXPECT_LE(c, 10.0);
  }
}

TEST(NelderMeadLean, DeterministicForIdenticalInputs) {
  const std::vector<double> lower(4, -3.0), upper(4, 3.0);
  IncrementalSphere a(2), b(2);
  const auto ra = pa::nelder_mead(a, {1.0, 2.0, -1.5, 0.75}, lower, upper);
  const auto rb = pa::nelder_mead(b, {1.0, 2.0, -1.5, 0.75}, lower, upper);
  EXPECT_EQ(ra.x, rb.x);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(ra.value),
            std::bit_cast<std::uint64_t>(rb.value));
  EXPECT_EQ(ra.evaluations, rb.evaluations);
}

TEST(NelderMead, BothOverloadsValidateInputs) {
  const std::vector<double> lower(2, -1.0), upper(2, 1.0);
  // Legacy callable overload.
  EXPECT_THROW((void)pa::nelder_mead(sphere, {}, {}, {}),
               std::invalid_argument);
  EXPECT_THROW((void)pa::nelder_mead(sphere, {0.0, 0.0}, {-1.0}, upper),
               std::invalid_argument);
  EXPECT_THROW(
      (void)pa::nelder_mead(sphere, {0.0, 0.0}, {2.0, 2.0}, {1.0, 1.0}),
      std::invalid_argument);
  {
    pa::NelderMeadOptions options;
    options.max_evaluations = 0;
    EXPECT_THROW(
        (void)pa::nelder_mead(sphere, {0.0, 0.0}, lower, upper, options),
        std::invalid_argument);
  }
  {
    pa::NelderMeadOptions options;
    options.x_tolerance = 0.0;
    EXPECT_THROW(
        (void)pa::nelder_mead(sphere, {0.0, 0.0}, lower, upper, options),
        std::invalid_argument);
  }
  {
    pa::NelderMeadOptions options;
    options.initial_step = -0.5;
    EXPECT_THROW(
        (void)pa::nelder_mead(sphere, {0.0, 0.0}, lower, upper, options),
        std::invalid_argument);
  }
  // Incremental overload: same checks plus the 2 * sites() shape rule.
  IncrementalSphere objective(2);
  EXPECT_THROW((void)pa::nelder_mead(objective, {0.0, 0.0}, lower, upper),
               std::invalid_argument);
  {
    pa::NelderMeadOptions options;
    options.f_tolerance = -1.0;
    EXPECT_THROW((void)pa::nelder_mead(objective,
                                       std::vector<double>(4, 0.0),
                                       std::vector<double>(4, -1.0),
                                       std::vector<double>(4, 1.0), options),
                 std::invalid_argument);
  }
}

// --- Simplex iterates on ties ---------------------------------------------

namespace {

/// Per-axis weighted sum of floor(4 x_i): a staircase whose flat treads give
/// the simplex many vertices of equal value.
double staircase(const std::vector<double>& x) {
  double s = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    s += (1.0 + 0.5 * static_cast<double>(i % 3)) * std::floor(4.0 * x[i]);
  }
  return s;
}

double constant_one(const std::vector<double>&) { return 1.0; }

/// Any full-state objective behind the incremental interface, for the lean
/// simplex (which probes full() alone).
class FullRescore final : public pa::IncrementalObjective {
 public:
  FullRescore(pa::Objective f, std::size_t sites)
      : f_(std::move(f)), coords_(2 * sites, 0.0) {}

  [[nodiscard]] std::size_t sites() const noexcept override {
    return coords_.size() / 2;
  }
  double reset(const std::vector<double>& coords) override {
    coords_ = coords;
    return value_ = f_(coords_);
  }
  [[nodiscard]] double value() const noexcept override { return value_; }
  double propose(std::size_t q, double x, double y) override {
    pending_ = coords_;
    pending_[2 * q] = x;
    pending_[2 * q + 1] = y;
    return pending_value_ = f_(pending_);
  }
  void commit() override {
    coords_.swap(pending_);
    value_ = pending_value_;
  }
  void snapshot(std::vector<double>& coords) const override {
    coords = coords_;
  }
  double full(const std::vector<double>& coords) override { return f_(coords); }

 private:
  pa::Objective f_;
  std::vector<double> coords_, pending_;
  double value_ = 0.0, pending_value_ = 0.0;
};

void hash_word(parallax::util::Hash128& h, std::uint64_t word) {
  unsigned char bytes[8];
  for (int b = 0; b < 8; ++b) {
    bytes[b] = static_cast<unsigned char>(word >> (8 * b));
  }
  h.update(bytes, sizeof bytes);
}

}  // namespace

TEST(NelderMead, IteratesAreByteStableOnTies) {
  // Both simplexes rank vertices by value, so on an objective with many
  // equal values the handling of ties decides which vertex is worst, the
  // centroid's summation order and every later probe. A staircase and a
  // constant objective, started inside the box and at its corners (where
  // the initial axis steps flip inward), over dimensions 1 to 40 (past the
  // 16 elements std::sort finishes by insertion) and several budgets; each
  // digest covers every run's evaluation count, value bits and x bits.
  struct Family {
    const char* name;
    pa::Objective f;
    bool corner;
  };
  const std::vector<Family> families{
      {"staircase/interior", staircase, false},
      {"staircase/corner", staircase, true},
      {"constant/interior", constant_one, false},
      {"constant/corner", constant_one, true},
  };
  const std::map<std::string, std::string> expected{
      {"legacy/staircase/interior", "01f4b848d0f3993fd6fb432d041db940"},
      {"legacy/staircase/corner", "17be6e42a87b456c563b5ceedd508830"},
      {"legacy/constant/interior", "15c0b8e0de78ec303c48710458bb2242"},
      {"legacy/constant/corner", "aa4c947c6bca478af38ded75f304579f"},
      {"lean/staircase/interior", "ecf5576c509401862930bb3b12c56bb7"},
      {"lean/staircase/corner", "1767f1e4527f48c5abcf68691940ed5a"},
      {"lean/constant/interior", "921ec213c79d53b3921659b839969996"},
      {"lean/constant/corner", "9f73f6480abe9dcd9b732c59f8a6ee76"},
  };
  std::map<std::string, std::string> actual;
  for (const Family& family : families) {
    parallax::util::Hash128 legacy, lean;
    for (std::size_t dim = 1; dim <= 40; ++dim) {
      std::vector<double> x0(dim);
      parallax::util::Rng rng(1000 + dim);
      for (std::size_t i = 0; i < dim; ++i) {
        x0[i] = family.corner ? (i % 2 == 0 ? 1.0 : 0.0) : rng.next_double();
      }
      const std::vector<double> lower(dim, 0.0), upper(dim, 1.0);
      for (const int budget : {30, 150, 600, 2500}) {
        pa::NelderMeadOptions options;
        options.max_evaluations = budget;
        auto record = [](parallax::util::Hash128& h,
                         const pa::LocalResult& r) {
          hash_word(h, static_cast<std::uint64_t>(r.evaluations));
          hash_word(h, std::bit_cast<std::uint64_t>(r.value));
          for (const double c : r.x) {
            hash_word(h, std::bit_cast<std::uint64_t>(c));
          }
        };
        record(legacy, pa::nelder_mead(family.f, x0, lower, upper, options));
        if (dim % 2 == 0) {
          FullRescore objective(family.f, dim / 2);
          record(lean, pa::nelder_mead(objective, x0, lower, upper, options));
        }
      }
    }
    actual[std::string("legacy/") + family.name] = legacy.digest().hex();
    actual[std::string("lean/") + family.name] = lean.digest().hex();
  }
  for (const auto& [name, digest] : expected) {
    EXPECT_EQ(actual[name], digest) << name;
  }
}

// --- Raced optimizer portfolio --------------------------------------------

namespace {

std::vector<pa::PortfolioEntrant> sphere_roster() {
  std::vector<pa::PortfolioEntrant> entrants(4);
  entrants[0].name = "delta";
  entrants[0].anneal.max_iterations = 40;
  entrants[1].name = "mc2";
  entrants[1].anneal.max_iterations = 20;
  entrants[1].chains = 2;
  entrants[2].name = "nm";
  entrants[2].polish_only = true;
  entrants[2].anneal.local_options.max_evaluations = 400;
  entrants[3].name = "restart";
  entrants[3].anneal.max_iterations = 40;
  entrants[3].fresh_start = true;
  // Distinct seeds, derived the way placement's portfolio roster does.
  for (std::size_t i = 0; i < entrants.size(); ++i) {
    entrants[i].anneal.seed =
        parallax::util::derive_seed(0x5eedULL, "entrant", i);
  }
  return entrants;
}

}  // namespace

TEST(Portfolio, RejectsBadRosters) {
  const auto make = [] { return std::make_unique<IncrementalSphere>(2); };
  const std::vector<double> lower(4, -1.0), upper(4, 1.0);
  pa::PortfolioOptions empty;
  EXPECT_THROW((void)pa::race(make, lower, upper, empty),
               std::invalid_argument);
  pa::PortfolioOptions bad_chains;
  bad_chains.entrants = sphere_roster();
  bad_chains.entrants[1].chains = 0;
  EXPECT_THROW((void)pa::race(make, lower, upper, bad_chains),
               std::invalid_argument);
}

TEST(Portfolio, WinnerIsTheBestEntrantWithFullAccounting) {
  const auto make = [] { return std::make_unique<IncrementalSphere>(3); };
  const std::vector<double> lower(6, -4.0), upper(6, 4.0);
  pa::PortfolioOptions options;
  options.entrants = sphere_roster();
  const auto result = pa::race(make, lower, upper, options);

  ASSERT_EQ(result.entrants.size(), 4u);
  int winners = 0;
  for (const auto& account : result.entrants) {
    EXPECT_FALSE(account.name.empty());
    // Strict-< selection: nobody beats the recorded best.
    EXPECT_GE(account.value, result.value);
    if (account.winner) {
      ++winners;
      EXPECT_EQ(account.name, result.winner);
      EXPECT_EQ(std::bit_cast<std::uint64_t>(account.value),
                std::bit_cast<std::uint64_t>(result.value));
    }
  }
  EXPECT_EQ(winners, 1);
  // Aggregate spend covers every entrant, not just the winner.
  std::int64_t evaluations = 0, deltas = 0;
  for (const auto& account : result.entrants) {
    evaluations += account.evaluations;
    deltas += account.delta_evaluations;
  }
  EXPECT_GT(evaluations, 0);
  EXPECT_GT(deltas, 0);
}

TEST(Portfolio, ThreadCountInvariantWinner) {
  const auto make = [] { return std::make_unique<IncrementalSphere>(4); };
  const std::vector<double> lower(8, -3.0), upper(8, 3.0);
  // The mixed roster, and a lone 4-chain entrant (plain multi-chain
  // annealing, every chain its own job).
  pa::PortfolioEntrant chains;
  chains.name = "mc4";
  chains.chains = 4;
  chains.anneal.max_iterations = 60;
  chains.anneal.seed = 0xFEEDULL;
  for (const auto& roster :
       {sphere_roster(), std::vector<pa::PortfolioEntrant>{chains}}) {
    SCOPED_TRACE(roster.front().name);
    pa::PortfolioOptions options;
    options.entrants = roster;

    options.pool = nullptr;  // sequential reference
    const auto sequential = pa::race(make, lower, upper, options);

    parallax::util::ThreadPool pool(4);
    options.pool = &pool;
    const auto pooled = pa::race(make, lower, upper, options);

    EXPECT_EQ(sequential.winner, pooled.winner);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sequential.value),
              std::bit_cast<std::uint64_t>(pooled.value));
    ASSERT_EQ(sequential.x.size(), pooled.x.size());
    for (std::size_t i = 0; i < sequential.x.size(); ++i) {
      EXPECT_EQ(std::bit_cast<std::uint64_t>(sequential.x[i]),
                std::bit_cast<std::uint64_t>(pooled.x[i]))
          << "coordinate " << i;
    }
    EXPECT_EQ(sequential.evaluations, pooled.evaluations);
    EXPECT_EQ(sequential.delta_evaluations, pooled.delta_evaluations);
    ASSERT_EQ(sequential.entrants.size(), pooled.entrants.size());
    for (std::size_t e = 0; e < sequential.entrants.size(); ++e) {
      EXPECT_EQ(sequential.entrants[e].name, pooled.entrants[e].name);
      EXPECT_EQ(
          std::bit_cast<std::uint64_t>(sequential.entrants[e].value),
          std::bit_cast<std::uint64_t>(pooled.entrants[e].value));
      EXPECT_EQ(sequential.entrants[e].evaluations,
                pooled.entrants[e].evaluations);
      EXPECT_EQ(sequential.entrants[e].delta_evaluations,
                pooled.entrants[e].delta_evaluations);
      EXPECT_EQ(sequential.entrants[e].winner, pooled.entrants[e].winner);
    }
  }
}

TEST(Portfolio, FreshStartIgnoresWarmStart) {
  // Warm-start everyone at the exact global minimum: warm entrants can only
  // stay there, while the fresh-restart entrant must have wandered.
  const auto make = [] { return std::make_unique<IncrementalSphere>(2); };
  const std::vector<double> lower(4, -2.0), upper(4, 2.0);
  pa::PortfolioOptions options;
  options.entrants = sphere_roster();
  for (auto& entrant : options.entrants) {
    entrant.anneal.initial = std::vector<double>(4, 0.0);
    entrant.anneal.local_search_interval = 0;
    entrant.anneal.max_iterations = 5;
  }
  const auto result = pa::race(make, lower, upper, options);
  EXPECT_LE(result.value, 1e-12);
  ASSERT_EQ(result.entrants.size(), 4u);
  EXPECT_NE(result.winner, "restart");
}

TEST(Portfolio, WinnerIsBestOfItsChains) {
  const std::vector<double> lower(6, -3.0), upper(6, 3.0);
  pa::PortfolioOptions options;
  options.entrants.resize(1);
  options.entrants[0].chains = 3;
  options.entrants[0].anneal.max_iterations = 40;
  options.entrants[0].anneal.seed = 77;
  const auto raced = pa::race(
      [] { return std::make_unique<IncrementalSphere>(3); }, lower, upper,
      options);
  // Replay each chain on its own seed, derive_seed(seed, "chain", k): the
  // race must have kept the first chain holding the lowest value.
  std::vector<pa::AnnealResult> chains;
  std::size_t first_best = 0;
  for (std::uint64_t k = 0; k < 3; ++k) {
    pa::DualAnnealingOptions chain = options.entrants[0].anneal;
    chain.seed = parallax::util::derive_seed(77, "chain", k);
    IncrementalSphere objective(3);
    chains.push_back(pa::dual_annealing(objective, lower, upper, chain));
    if (chains.back().value < chains[first_best].value) first_best = k;
  }
  EXPECT_EQ(std::bit_cast<std::uint64_t>(raced.value),
            std::bit_cast<std::uint64_t>(chains[first_best].value));
  EXPECT_EQ(raced.x, chains[first_best].x);
  std::int64_t delta_evaluations = 0;
  for (const auto& chain : chains) delta_evaluations += chain.delta_evaluations;
  EXPECT_EQ(raced.delta_evaluations, delta_evaluations);
}
