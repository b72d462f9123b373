// Batched distance/edge-cost kernels for the anneal hot loops. Every kernel
// computes the *same per-term doubles* as the scalar expressions in
// placement::DeltaPlacementObjective — sub/mul/add/div/sqrt are all IEEE-754
// correctly rounded elementwise, the kernel translation unit is compiled with
// -ffp-contract=off (no FMA contraction), and term accumulation stays in
// util::ExactSum (whose add/subtract are associative) — so kernel output is
// bit-identical to the scalar formulas, which is what keeps cached
// fingerprints and goldens valid. Locked by the reference fuzz tests in
// tests/test_kernels.cpp.
//
// The bodies are portable and manually unrolled 4 wide. A hardware SIMD lane
// returns only with an end-to-end benchmark gain to justify it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace parallax::anneal::kernels {

enum class Lane : std::uint8_t {
  kScalar = 0,  // portable 4-wide manually unrolled bodies
};

/// Stable lowercase name ("scalar") — recorded in benchmark metadata.
[[nodiscard]] const char* lane_name(Lane lane) noexcept;

/// The lane every kernel below runs on.
[[nodiscard]] Lane active_lane() noexcept;

// --- kernels ------------------------------------------------------------------
// out[i] = w[i] * sqrt((px - xs[idx[i]])^2 + (py - ys[idx[i]])^2)
// (the per-qubit CSR adjacency gather of DeltaPlacementObjective::propose).
void edge_terms_gather(const std::int32_t* idx, const double* w,
                       std::size_t count, double px, double py,
                       const double* xs, const double* ys,
                       double* out) noexcept;

// out[e] = w[e] * sqrt((xs[a[e]] - xs[b[e]])^2 + (ys[a[e]] - ys[b[e]])^2)
// (the full re-score edge loop over the SoA edge list).
void edge_terms_pairs(const std::int32_t* a, const std::int32_t* b,
                      const double* w, std::size_t count, const double* xs,
                      const double* ys, double* out) noexcept;

// Crowding-grid neighbor scan: for each candidate j = idx[i], computes
// dsq = (px - xs[j])^2 + (py - ys[j])^2 and, when dsq < denom and j passes
// the exclusion rule, appends weight * v * v / denom with v = d_min -
// sqrt(dsq) to `out` (caller guarantees capacity >= count). Returns the
// number of terms appended. Two exclusion rules match the two scalar loops:
//   * excluding_self: skips j == self (propose's scan against all others);
//   * above_self:     keeps only j > self (the pair-dedup full re-score).
std::size_t crowding_terms_excluding_self(const std::int32_t* idx,
                                          std::size_t count, std::int32_t self,
                                          double px, double py,
                                          const double* xs, const double* ys,
                                          double d_min, double denom,
                                          double weight, double* out) noexcept;

std::size_t crowding_terms_above_self(const std::int32_t* idx,
                                      std::size_t count, std::int32_t self,
                                      double px, double py, const double* xs,
                                      const double* ys, double d_min,
                                      double denom, double weight,
                                      double* out) noexcept;

}  // namespace parallax::anneal::kernels
