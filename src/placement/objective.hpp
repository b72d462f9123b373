// Delta-cost placement objective: the Graphine cost function (weighted edge
// lengths + crowding penalty) behind anneal::IncrementalObjective, so a
// single-qubit move is scored in O(deg(q) + local neighbors) instead of the
// legacy O(E + n) full re-score.
//
// Structure:
//   * Edge term — CSR adjacency per qubit; a move touches exactly deg(q)
//     edge terms.
//   * Crowding term — a geom::UniformGrid with cells wider than d_min
//     (d_min = crowding_distance / sqrt(n)), the grid the legacy objective
//     scans too: every pair closer than d_min lies in adjacent cells, so a
//     3x3 neighborhood scan finds exactly the penalized pairs, out-of-box
//     points included.
//   * Exactness — cost terms accumulate in a util::ExactSum, whose
//     add/subtract are associative: value() after any move sequence is
//     bit-identical to full() of the same geometry, which is what keeps
//     multi-chain reduction and cached fingerprints deterministic.
//
// Term arithmetic intentionally uses sqrt(dx*dx + dy*dy), not geom::distance
// (std::hypot): hypot's extra rounding control is irrelevant in [0,1]^2 and
// sqrt batches — the per-term math runs through the 4-wide anneal::kernels,
// which are bit-identical to these formulas. The legacy placement_objective
// keeps hypot — the two paths are distinct fingerprint-visible modes, not
// bit-equal twins.
#pragma once

#include <cstdint>
#include <vector>

#include "anneal/objective.hpp"
#include "circuit/interaction_graph.hpp"
#include "geometry/uniform_grid.hpp"
#include "placement/graphine.hpp"
#include "util/exact_sum.hpp"

namespace parallax::placement {

class DeltaPlacementObjective final : public anneal::IncrementalObjective {
 public:
  DeltaPlacementObjective(const circuit::InteractionGraph& graph,
                          const GraphineOptions& options);

  [[nodiscard]] std::size_t sites() const noexcept override { return n_; }
  double reset(const std::vector<double>& coords) override;
  [[nodiscard]] double value() const noexcept override { return value_; }
  double propose(std::size_t q, double x, double y) override;
  void commit() override;
  void snapshot(std::vector<double>& coords) const override;
  double full(const std::vector<double>& coords) override;

 private:
  /// Writes into term_buf_ every cost term involving site q at position
  /// (px, py) against the current positions of all other sites: deg(q) edge
  /// terms plus the crowding terms of neighbors within d_min, one kernel
  /// call per grid row span. Returns the term count. Term values stay
  /// bit-identical to the scalar formulas (see kernels.hpp).
  std::size_t collect_terms(std::size_t q, double px, double py);

  /// Adds every edge term and every crowding pair (i < j) of the geometry
  /// (xs, ys), bucketed in `grid`, to `acc`.
  void accumulate_all(const double* xs, const double* ys,
                      const geom::UniformGrid& grid, util::ExactSum& acc);

  std::size_t n_ = 0;
  double d_min_ = 0.0;
  double denom_ = 0.0;  // d_min^2: both the inclusion test and the divisor
  double crowding_weight_ = 0.0;
  bool crowding_ = false;

  // CSR adjacency (both directions) + SoA edge list for full scoring —
  // the kernel gather wants flat index/weight arrays, not an AoS struct.
  std::vector<std::int32_t> adj_start_;
  std::vector<std::int32_t> adj_qubit_;
  std::vector<double> adj_weight_;
  std::vector<std::int32_t> edge_a_, edge_b_;
  std::vector<double> edge_w_;

  // Live state: SoA coordinates, bucketed occupancy, exact running cost.
  std::vector<double> xs_, ys_;
  geom::UniformGrid grid_;
  util::ExactSum acc_;
  double value_ = 0.0;

  // Pending move staged by propose(), applied by commit(): the running cost
  // with the move's terms already swapped, so commit() copies it.
  bool pending_ = false;
  std::size_t pending_q_ = 0;
  double pending_x_ = 0.0, pending_y_ = 0.0, pending_value_ = 0.0;
  util::ExactSum pending_acc_;

  // Scratch grid for full() (arbitrary query geometry), the de-strided
  // coordinate copies full() feeds the kernels, and the term staging
  // buffer shared by all batched paths, sized once to the most terms any
  // of them stages: every edge, or a site's edges plus all n sites.
  geom::UniformGrid scratch_grid_;
  std::vector<double> scratch_xs_, scratch_ys_;
  std::vector<double> term_buf_;
};

}  // namespace parallax::placement
