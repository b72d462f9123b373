// Tests for util: RNG determinism/statistics, table/CSV formatting, pool.
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <new>
#include <set>
#include <stdexcept>
#include <system_error>
#include <thread>
#include <vector>

#include "mutation.hpp"
#include "util/csv.hpp"
#include "util/exact_sum.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace pu = parallax::util;

TEST(Rng, DeterministicForSameSeed) {
  pu::Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  pu::Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, DoubleInUnitInterval) {
  pu::Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(Rng, UniformRespectsBounds) {
  pu::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, NextBelowCoversRangeUniformly) {
  pu::Rng rng(11);
  std::array<int, 10> counts{};
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(10)];
  for (int c : counts) {
    EXPECT_GT(c, kDraws / 10 - kDraws / 50);
    EXPECT_LT(c, kDraws / 10 + kDraws / 50);
  }
}

TEST(Rng, UniformIntInclusiveBounds) {
  pu::Rng rng(3);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, NormalHasApproxUnitMoments) {
  pu::Rng rng(13);
  double sum = 0.0, sum_sq = 0.0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) {
    const double v = rng.normal();
    sum += v;
    sum_sq += v * v;
  }
  EXPECT_NEAR(sum / kDraws, 0.0, 0.02);
  EXPECT_NEAR(sum_sq / kDraws, 1.0, 0.03);
}

TEST(Rng, ShuffleIsAPermutation) {
  pu::Rng rng(17);
  std::vector<int> v(100);
  for (int i = 0; i < 100; ++i) v[static_cast<std::size_t>(i)] = i;
  auto w = v;
  rng.shuffle(w);
  EXPECT_NE(v, w);  // overwhelmingly likely
  std::sort(w.begin(), w.end());
  EXPECT_EQ(v, w);
}

TEST(Rng, SplitStreamsAreIndependent) {
  pu::Rng parent(23);
  pu::Rng child = parent.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (parent.next_u64() == child.next_u64());
  EXPECT_LT(same, 2);
}

TEST(Rng, BernoulliMatchesProbability) {
  pu::Rng rng(29);
  int hits = 0;
  constexpr int kDraws = 100000;
  for (int i = 0; i < kDraws; ++i) hits += rng.bernoulli(0.3);
  EXPECT_NEAR(static_cast<double>(hits) / kDraws, 0.3, 0.01);
}

TEST(Table, RendersHeaderAndRows) {
  pu::Table t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"beta", "22"});
  const std::string s = t.to_string();
  EXPECT_NE(s.find("name"), std::string::npos);
  EXPECT_NE(s.find("alpha"), std::string::npos);
  EXPECT_NE(s.find("22"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 2u);
}

TEST(Table, FormatHelpers) {
  EXPECT_EQ(pu::format_fixed(1.2345, 2), "1.23");
  EXPECT_EQ(pu::format_sci(0.018, 1), "1.8e-02");
  EXPECT_EQ(pu::format_compact(57000.0), "5.7e+04");
  EXPECT_EQ(pu::format_compact(371.0), "371");
  EXPECT_EQ(pu::format_percent(0.4567), "45.7%");
}

TEST(Csv, LineQuotesCommaQuoteAndNewlineCells) {
  EXPECT_EQ(pu::csv_line({"plain", "with,comma"}), "plain,\"with,comma\"\n");
  EXPECT_EQ(pu::csv_line({"quote\"inside", "x"}), "\"quote\"\"inside\",x\n");
  EXPECT_EQ(pu::csv_line({"line\nbreak", ""}), "\"line\nbreak\",\n");
}

TEST(ThreadPool, RunsAllTasks) {
  pu::ThreadPool pool(4);
  std::atomic<int> counter{0};
  pool.parallel_for(1000, [&](std::size_t) { ++counter; });
  EXPECT_EQ(counter.load(), 1000);
}

TEST(ThreadPool, SubmitReturnsResults) {
  pu::ThreadPool pool(2);
  auto f1 = pool.submit([] { return 21 * 2; });
  auto f2 = pool.submit([] { return std::string("ok"); });
  EXPECT_EQ(f1.get(), 42);
  EXPECT_EQ(f2.get(), "ok");
}

TEST(ThreadPool, ZeroTasksIsNoop) {
  pu::ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL(); });
}

TEST(ThreadPool, AConstructorThatCannotStartItsThreadsThrows) {
  // The child caps its address space 48 MiB above its size, room for only a
  // handful of thread stacks. The pool of 64 must throw from its
  // constructor, having joined the workers it did start; joinable threads
  // left behind would terminate the child from their destructors.
  EXPECT_EXIT(
      {
        if (!parallax::fuzz::cap_address_space(std::uint64_t{48} << 20)) {
          std::_Exit(2);
        }
        try {
          pu::ThreadPool pool(64);
        } catch (const std::system_error&) {
          std::_Exit(0);
        } catch (const std::bad_alloc&) {
          std::_Exit(0);
        }
        std::_Exit(1);
      },
      ::testing::ExitedWithCode(0), "");
}

// Regression: parallel_for used to rethrow from the first failed future
// while later queued tasks still held a (by-reference) capture of `f` — a
// mid-batch throw could leave workers racing a dangling reference. The
// contract now: every task runs to completion, then the first exception is
// rethrown.
TEST(ThreadPool, ParallelForDrainsEveryTaskBeforeRethrowing) {
  pu::ThreadPool pool(4);
  std::atomic<int> executed{0};
  bool threw = false;
  try {
    pool.parallel_for(200, [&](std::size_t i) {
      ++executed;
      if (i == 3) throw std::runtime_error("boom at 3");
    });
  } catch (const std::runtime_error& error) {
    threw = true;
    EXPECT_STREQ(error.what(), "boom at 3");
  }
  EXPECT_TRUE(threw);
  // Every task ran — the throw at i=3 must not abandon the tail of the
  // batch (those tasks reference `f`, alive only until parallel_for exits).
  EXPECT_EQ(executed.load(), 200);
}

TEST(ThreadPool, ParallelForRethrowsTheFirstOfManyExceptions) {
  pu::ThreadPool pool(2);
  // Futures are drained in index order, so index 5 wins deterministically
  // even if another thrower finished first.
  try {
    pool.parallel_for(100, [&](std::size_t i) {
      if (i >= 5 && i % 7 == 5) {
        throw std::runtime_error("boom at " + std::to_string(i));
      }
    });
    FAIL() << "parallel_for swallowed the exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "boom at 5");
  }
}

TEST(ThreadPool, ParallelForRunsItsProgressCallbackOnTheCallingThread) {
  pu::ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  int runs = 0;
  bool ran_elsewhere = false;
  pool.parallel_for(64, [](std::size_t) {}, [&] {
    ran_elsewhere = ran_elsewhere || std::this_thread::get_id() != caller;
    ++runs;
  });
  EXPECT_FALSE(ran_elsewhere);
  EXPECT_GE(runs, 1);
}

TEST(ThreadPool, ParallelForProgressRunsBetweenTasks) {
  // One worker, and task i waits for the callback's i-th run: the batch
  // completes only if the callback runs after each task, not just at the
  // end.
  pu::ThreadPool pool(1);
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t runs = 0;
  bool timed_out = false;
  pool.parallel_for(
      4,
      [&](std::size_t i) {
        std::unique_lock lock(mutex);
        if (!cv.wait_for(lock, std::chrono::seconds(30),
                         [&] { return runs >= i; })) {
          timed_out = true;
        }
      },
      [&] {
        {
          std::lock_guard lock(mutex);
          ++runs;
        }
        cv.notify_all();
      });
  EXPECT_FALSE(timed_out);
  EXPECT_EQ(runs, 4u);
}

TEST(ThreadPool, ParallelForRunsEveryTaskAndTheLastCallbackBeforeRethrowing) {
  pu::ThreadPool pool(4);
  std::atomic<int> executed{0};
  int executed_at_last_run = -1;
  try {
    pool.parallel_for(
        200,
        [&](std::size_t i) {
          ++executed;
          if (i == 3) throw std::runtime_error("boom at 3");
        },
        [&] { executed_at_last_run = executed.load(); });
    FAIL() << "parallel_for swallowed the exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "boom at 3");
  }
  EXPECT_EQ(executed.load(), 200);
  EXPECT_EQ(executed_at_last_run, 200);
}

TEST(ThreadPool, AThrowingProgressCallbackStopsButEveryTaskRuns) {
  pu::ThreadPool pool(2);
  std::atomic<int> executed{0};
  int runs = 0;
  const auto throwing_callback = [&] {
    ++runs;
    throw std::runtime_error("callback");
  };
  try {
    pool.parallel_for(50, [&](std::size_t) { ++executed; }, throwing_callback);
    FAIL() << "parallel_for swallowed the callback's exception";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "callback");
  }
  EXPECT_EQ(executed.load(), 50);
  EXPECT_EQ(runs, 1);
  // A task's exception wins over the callback's.
  try {
    pool.parallel_for(
        50,
        [&](std::size_t i) {
          if (i == 7) throw std::runtime_error("boom at 7");
        },
        throwing_callback);
    FAIL() << "parallel_for swallowed the exceptions";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "boom at 7");
  }
}

// --- util/parse (strict CLI numeric parsing) ----------------------------------

TEST(Parse, U64AcceptsWholeDecimalOnly) {
  EXPECT_EQ(pu::parse_u64("0"), 0u);
  EXPECT_EQ(pu::parse_u64("42"), 42u);
  EXPECT_EQ(pu::parse_u64("18446744073709551615"),
            18446744073709551615ull);
  EXPECT_FALSE(pu::parse_u64("").has_value());
  EXPECT_FALSE(pu::parse_u64("banana").has_value());
  EXPECT_FALSE(pu::parse_u64("42banana").has_value());  // trailing garbage
  EXPECT_FALSE(pu::parse_u64("42 ").has_value());
  EXPECT_FALSE(pu::parse_u64(" 42").has_value());
  EXPECT_FALSE(pu::parse_u64("-1").has_value());
  EXPECT_FALSE(pu::parse_u64("+1").has_value());
  EXPECT_FALSE(pu::parse_u64("18446744073709551616").has_value());  // 2^64
  EXPECT_FALSE(pu::parse_u64("0x10").has_value());
}

TEST(Parse, U32AndI32RespectRanges) {
  EXPECT_EQ(pu::parse_u32("4294967295"), 4294967295u);
  EXPECT_FALSE(pu::parse_u32("4294967296").has_value());
  EXPECT_EQ(pu::parse_i32("-20"), -20);
  EXPECT_EQ(pu::parse_i32("2147483647"), 2147483647);
  EXPECT_FALSE(pu::parse_i32("2147483648").has_value());
  EXPECT_FALSE(pu::parse_i32("1e3").has_value());
}

TEST(Parse, F64AcceptsFixedAndScientific) {
  EXPECT_DOUBLE_EQ(*pu::parse_f64("2.5"), 2.5);
  EXPECT_DOUBLE_EQ(*pu::parse_f64("-1e-3"), -1e-3);
  EXPECT_DOUBLE_EQ(*pu::parse_f64("3"), 3.0);
  EXPECT_FALSE(pu::parse_f64("").has_value());
  EXPECT_FALSE(pu::parse_f64("2.5x").has_value());
  EXPECT_FALSE(pu::parse_f64("spread").has_value());
}

// --- ExactSum: the superaccumulator behind incremental delta scoring ------

namespace {
/// Doubles spanning many binades (including values whose naive sums round
/// differently depending on order) plus signs and subnormals.
std::vector<double> exact_sum_corpus(std::uint64_t seed, std::size_t n) {
  pu::Rng rng(seed);
  std::vector<double> values;
  values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double mantissa = rng.uniform(-1.0, 1.0);
    const int exponent = static_cast<int>(rng.uniform_int(-320, 300));
    values.push_back(std::ldexp(mantissa, exponent));
  }
  values.push_back(5e-324);   // smallest subnormal
  values.push_back(-5e-324);
  values.push_back(0.0);
  values.push_back(-0.0);
  return values;
}
}  // namespace

TEST(ExactSum, EmptyAccumulatorRoundsToPositiveZero) {
  pu::ExactSum sum;
  EXPECT_EQ(sum.round(), 0.0);
  EXPECT_FALSE(std::signbit(sum.round()));
}

TEST(ExactSum, SingleValueRoundTripsExactly) {
  for (const double v : exact_sum_corpus(11, 64)) {
    pu::ExactSum sum;
    sum.add(v);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sum.round()),
              std::bit_cast<std::uint64_t>(v + 0.0))
        << v;  // +0.0 canonicalizes -0.0, which round() never produces
  }
}

TEST(ExactSum, PermutationInvariantBitwise) {
  auto values = exact_sum_corpus(42, 200);
  pu::ExactSum reference;
  for (const double v : values) reference.add(v);
  const auto reference_bits = std::bit_cast<std::uint64_t>(reference.round());
  pu::Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    rng.shuffle(values);
    pu::ExactSum sum;
    for (const double v : values) sum.add(v);
    EXPECT_TRUE(sum == reference);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sum.round()), reference_bits);
  }
}

TEST(ExactSum, AddThenSubtractRestoresAccumulatorBits) {
  const auto base = exact_sum_corpus(3, 50);
  const auto churn = exact_sum_corpus(99, 50);
  pu::ExactSum sum;
  for (const double v : base) sum.add(v);
  const pu::ExactSum before = sum;
  // Interleave adds and removes of the churn set in scrambled orders; once
  // every churn term is gone the accumulator must be bit-identical.
  auto scrambled = churn;
  pu::Rng rng(5);
  for (const double v : churn) sum.add(v);
  rng.shuffle(scrambled);
  for (const double v : scrambled) sum.subtract(v);
  EXPECT_TRUE(sum == before);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(sum.round()),
            std::bit_cast<std::uint64_t>(before.round()));
}

TEST(ExactSum, CancellationIsExactWhereFloatsDrift) {
  // 1e16 + 1 - 1e16 == 0 in double arithmetic (the 1 is absorbed); the
  // superaccumulator keeps it.
  pu::ExactSum sum;
  sum.add(1e16);
  sum.add(1.0);
  sum.subtract(1e16);
  EXPECT_EQ(sum.round(), 1.0);
  EXPECT_EQ((1e16 + 1.0) - 1e16, 0.0);
}

TEST(ExactSum, RoundsHalfToEven) {
  // 2^53 + 1 is exactly representable as an exact sum but not as a double:
  // the tie must round to the even neighbor 2^53.
  pu::ExactSum sum;
  sum.add(9007199254740992.0);  // 2^53
  sum.add(1.0);
  EXPECT_EQ(sum.round(), 9007199254740992.0);
  // 2^53 + 3 ties to 2^53 + 4 (even mantissa).
  sum.add(2.0);
  EXPECT_EQ(sum.round(), 9007199254740996.0);
}
