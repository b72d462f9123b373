// Bit-identity lock for the anneal kernels: the 4-wide bodies must produce
// exactly the bytes of the plain scalar formulas, on randomized inputs
// including all tail lengths — this is the invariant that keeps cached
// placement fingerprints and goldens valid (see src/anneal/kernels.hpp).
// Delta-vs-full objective identity is fuzzed in tests/test_placement.cpp.
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "anneal/kernels.hpp"
#include "util/rng.hpp"

namespace pk = parallax::anneal::kernels;
using parallax::util::Rng;

namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Scalar references: the exact expressions the kernels contract to.

void ref_edge_gather(const std::int32_t* idx, const double* w,
                     std::size_t count, double px, double py, const double* xs,
                     const double* ys, double* out) {
  for (std::size_t i = 0; i < count; ++i) {
    const double dx = px - xs[idx[i]];
    const double dy = py - ys[idx[i]];
    out[i] = w[i] * std::sqrt(dx * dx + dy * dy);
  }
}

void ref_edge_pairs(const std::int32_t* a, const std::int32_t* b,
                    const double* w, std::size_t count, const double* xs,
                    const double* ys, double* out) {
  for (std::size_t e = 0; e < count; ++e) {
    const double dx = xs[a[e]] - xs[b[e]];
    const double dy = ys[a[e]] - ys[b[e]];
    out[e] = w[e] * std::sqrt(dx * dx + dy * dy);
  }
}

std::size_t ref_crowding(const std::int32_t* idx, std::size_t count,
                         std::int32_t self, double px, double py,
                         const double* xs, const double* ys, double d_min,
                         double denom, double weight, bool above_self,
                         double* out) {
  std::size_t produced = 0;
  for (std::size_t i = 0; i < count; ++i) {
    const std::int32_t j = idx[i];
    if (above_self ? j <= self : j == self) continue;
    const double dx = px - xs[j];
    const double dy = py - ys[j];
    const double dsq = dx * dx + dy * dy;
    if (dsq < denom) {
      const double v = d_min - std::sqrt(dsq);
      out[produced++] = weight * v * v / denom;
    }
  }
  return produced;
}

struct FuzzCase {
  std::vector<double> xs, ys;
  std::vector<std::int32_t> idx;
  std::vector<double> w;
  double px = 0.0, py = 0.0;
};

FuzzCase make_case(Rng& rng, std::size_t n_sites, std::size_t count) {
  FuzzCase c;
  c.xs.resize(n_sites);
  c.ys.resize(n_sites);
  for (std::size_t s = 0; s < n_sites; ++s) {
    c.xs[s] = rng.uniform(0.0, 1.0);
    c.ys[s] = rng.uniform(0.0, 1.0);
  }
  c.idx.resize(count);
  c.w.resize(count);
  for (std::size_t i = 0; i < count; ++i) {
    c.idx[i] = static_cast<std::int32_t>(rng.next_below(n_sites));
    c.w[i] = rng.uniform(0.0, 4.0);
  }
  c.px = rng.uniform(-0.1, 1.1);
  c.py = rng.uniform(-0.1, 1.1);
  return c;
}

// Tail lengths around the block width, plus block-aligned and large counts.
constexpr std::size_t kCounts[] = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 15, 16,
                                   17, 31, 33, 64, 100};

}  // namespace

TEST(Kernels, EdgeGatherBitIdenticalToReference) {
  Rng rng(0xE5CAFE01u);
  for (const std::size_t count : kCounts) {
    const FuzzCase c = make_case(rng, 97, count);
    std::vector<double> expected(count), got(count, -1.0);
    ref_edge_gather(c.idx.data(), c.w.data(), count, c.px, c.py, c.xs.data(),
                    c.ys.data(), expected.data());
    pk::edge_terms_gather(c.idx.data(), c.w.data(), count, c.px, c.py,
                          c.xs.data(), c.ys.data(), got.data());
    for (std::size_t i = 0; i < count; ++i) {
      ASSERT_EQ(bits(got[i]), bits(expected[i]))
          << "count=" << count << " i=" << i;
    }
  }
}

TEST(Kernels, EdgePairsBitIdenticalToReference) {
  Rng rng(0xE5CAFE02u);
  for (const std::size_t count : kCounts) {
    const FuzzCase c = make_case(rng, 61, count);
    std::vector<std::int32_t> b(count);
    for (std::size_t e = 0; e < count; ++e) {
      b[e] = static_cast<std::int32_t>(rng.next_below(61));
    }
    std::vector<double> expected(count), got(count, -1.0);
    ref_edge_pairs(c.idx.data(), b.data(), c.w.data(), count, c.xs.data(),
                   c.ys.data(), expected.data());
    pk::edge_terms_pairs(c.idx.data(), b.data(), c.w.data(), count,
                         c.xs.data(), c.ys.data(), got.data());
    for (std::size_t e = 0; e < count; ++e) {
      ASSERT_EQ(bits(got[e]), bits(expected[e]))
          << "count=" << count << " e=" << e;
    }
  }
}

TEST(Kernels, CrowdingBitIdenticalToReference) {
  Rng rng(0xE5CAFE03u);
  // d_min large enough that a meaningful fraction of random pairs pass the
  // cutoff, small enough that the pass/skip branch is exercised both ways.
  const double d_min = 0.35;
  const double denom = d_min * d_min;
  const double weight = 2.5;
  for (const std::size_t count : kCounts) {
    const FuzzCase c = make_case(rng, 53, count);
    // self sometimes present in idx (self-exclusion must fire), sometimes
    // absent.
    const auto self = static_cast<std::int32_t>(rng.next_below(53));
    for (const bool above : {false, true}) {
      std::vector<double> expected(count + 1, -1.0), got(count + 1, -1.0);
      const std::size_t want = ref_crowding(
          c.idx.data(), count, self, c.px, c.py, c.xs.data(), c.ys.data(),
          d_min, denom, weight, above, expected.data());
      const std::size_t produced =
          above ? pk::crowding_terms_above_self(
                      c.idx.data(), count, self, c.px, c.py, c.xs.data(),
                      c.ys.data(), d_min, denom, weight, got.data())
                : pk::crowding_terms_excluding_self(
                      c.idx.data(), count, self, c.px, c.py, c.xs.data(),
                      c.ys.data(), d_min, denom, weight, got.data());
      ASSERT_EQ(produced, want) << "count=" << count << " above=" << above;
      for (std::size_t i = 0; i < produced; ++i) {
        ASSERT_EQ(bits(got[i]), bits(expected[i]))
            << "count=" << count << " i=" << i;
      }
    }
  }
}
