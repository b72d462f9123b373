#include "anneal/kernels.hpp"

#include <cmath>

namespace parallax::anneal::kernels {

namespace {

// A 4-wide vocabulary spelled out element by element, so each kernel body
// below reads as one block step plus a scalar tail. All arithmetic here must
// stay plain sub/mul/add/sqrt: this TU is built with -ffp-contract=off so the
// compiler cannot fuse them into FMAs, which is what makes every term
// bit-identical to the scalar expressions in placement/objective.cpp.
constexpr unsigned kWidth = 4;

struct Vec {
  double v[kWidth];
};

Vec broadcast(double x) noexcept { return {{x, x, x, x}}; }

Vec load(const double* p) noexcept { return {{p[0], p[1], p[2], p[3]}}; }

Vec gather(const double* base, const std::int32_t* idx) noexcept {
  return {{base[idx[0]], base[idx[1]], base[idx[2]], base[idx[3]]}};
}

Vec add(Vec a, Vec b) noexcept {
  return {{a.v[0] + b.v[0], a.v[1] + b.v[1], a.v[2] + b.v[2], a.v[3] + b.v[3]}};
}

Vec sub(Vec a, Vec b) noexcept {
  return {{a.v[0] - b.v[0], a.v[1] - b.v[1], a.v[2] - b.v[2], a.v[3] - b.v[3]}};
}

Vec mul(Vec a, Vec b) noexcept {
  return {{a.v[0] * b.v[0], a.v[1] * b.v[1], a.v[2] * b.v[2], a.v[3] * b.v[3]}};
}

Vec vsqrt(Vec a) noexcept {
  return {{std::sqrt(a.v[0]), std::sqrt(a.v[1]), std::sqrt(a.v[2]),
           std::sqrt(a.v[3])}};
}

void store(double* p, Vec a) noexcept {
  p[0] = a.v[0];
  p[1] = a.v[1];
  p[2] = a.v[2];
  p[3] = a.v[3];
}

int lt_mask(Vec a, Vec b) noexcept {
  int mask = 0;
  for (unsigned l = 0; l < kWidth; ++l) {
    if (a.v[l] < b.v[l]) mask |= 1 << l;
  }
  return mask;
}

// Crowding scan. The block part computes dsq 4-wide and uses a mask to skip
// blocks with no candidate inside the cutoff; the (rare) passing elements
// finish with the exact scalar formula ((weight * v) * v) / denom, where dsq
// is already bit-identical either way. kAboveSelf selects the pair-dedup
// rule (keep j > self) instead of the skip-self rule (drop j == self).
template <bool kAboveSelf>
std::size_t crowding_terms(const std::int32_t* idx, std::size_t count,
                           std::int32_t self, double px, double py,
                           const double* xs, const double* ys, double d_min,
                           double denom, double weight, double* out) noexcept {
  const Vec vpx = broadcast(px);
  const Vec vpy = broadcast(py);
  const Vec vdenom = broadcast(denom);
  std::size_t produced = 0;
  std::size_t i = 0;
  for (; i + kWidth <= count; i += kWidth) {
    const Vec dx = sub(vpx, gather(xs, idx + i));
    const Vec dy = sub(vpy, gather(ys, idx + i));
    const Vec dsq = add(mul(dx, dx), mul(dy, dy));
    const int mask = lt_mask(dsq, vdenom);
    if (mask == 0) continue;
    for (unsigned l = 0; l < kWidth; ++l) {
      if (((mask >> l) & 1) == 0) continue;
      const std::int32_t j = idx[i + l];
      if (kAboveSelf ? (j <= self) : (j == self)) continue;
      const double v = d_min - std::sqrt(dsq.v[l]);
      out[produced++] = weight * v * v / denom;
    }
  }
  for (; i < count; ++i) {
    const std::int32_t j = idx[i];
    if (kAboveSelf ? (j <= self) : (j == self)) continue;
    const double dx = px - xs[j];
    const double dy = py - ys[j];
    const double dsq = dx * dx + dy * dy;
    if (!(dsq < denom)) continue;
    const double v = d_min - std::sqrt(dsq);
    out[produced++] = weight * v * v / denom;
  }
  return produced;
}

}  // namespace

const char* lane_name(Lane) noexcept { return "scalar"; }

Lane active_lane() noexcept { return Lane::kScalar; }

void edge_terms_gather(const std::int32_t* idx, const double* w,
                       std::size_t count, double px, double py,
                       const double* xs, const double* ys,
                       double* out) noexcept {
  const Vec vpx = broadcast(px);
  const Vec vpy = broadcast(py);
  std::size_t i = 0;
  for (; i + kWidth <= count; i += kWidth) {
    const Vec dx = sub(vpx, gather(xs, idx + i));
    const Vec dy = sub(vpy, gather(ys, idx + i));
    const Vec dsq = add(mul(dx, dx), mul(dy, dy));
    store(out + i, mul(load(w + i), vsqrt(dsq)));
  }
  for (; i < count; ++i) {
    const double dx = px - xs[idx[i]];
    const double dy = py - ys[idx[i]];
    out[i] = w[i] * std::sqrt(dx * dx + dy * dy);
  }
}

void edge_terms_pairs(const std::int32_t* a, const std::int32_t* b,
                      const double* w, std::size_t count, const double* xs,
                      const double* ys, double* out) noexcept {
  std::size_t i = 0;
  for (; i + kWidth <= count; i += kWidth) {
    const Vec dx = sub(gather(xs, a + i), gather(xs, b + i));
    const Vec dy = sub(gather(ys, a + i), gather(ys, b + i));
    const Vec dsq = add(mul(dx, dx), mul(dy, dy));
    store(out + i, mul(load(w + i), vsqrt(dsq)));
  }
  for (; i < count; ++i) {
    const double dx = xs[a[i]] - xs[b[i]];
    const double dy = ys[a[i]] - ys[b[i]];
    out[i] = w[i] * std::sqrt(dx * dx + dy * dy);
  }
}

std::size_t crowding_terms_excluding_self(const std::int32_t* idx,
                                          std::size_t count, std::int32_t self,
                                          double px, double py,
                                          const double* xs, const double* ys,
                                          double d_min, double denom,
                                          double weight, double* out) noexcept {
  return crowding_terms<false>(idx, count, self, px, py, xs, ys, d_min, denom,
                               weight, out);
}

std::size_t crowding_terms_above_self(const std::int32_t* idx,
                                      std::size_t count, std::int32_t self,
                                      double px, double py, const double* xs,
                                      const double* ys, double d_min,
                                      double denom, double weight,
                                      double* out) noexcept {
  return crowding_terms<true>(idx, count, self, px, py, xs, ys, d_min, denom,
                              weight, out);
}

}  // namespace parallax::anneal::kernels
