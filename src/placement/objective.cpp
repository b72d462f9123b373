#include "placement/objective.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "anneal/kernels.hpp"

namespace parallax::placement {

namespace kernels = anneal::kernels;

DeltaPlacementObjective::DeltaPlacementObjective(
    const circuit::InteractionGraph& graph, const GraphineOptions& options)
    : n_(static_cast<std::size_t>(graph.n_qubits())),
      d_min_(n_ > 1 ? options.crowding_distance /
                          std::sqrt(static_cast<double>(n_))
                    : 0.0),
      denom_(d_min_ * d_min_),
      crowding_weight_(options.crowding_weight),
      crowding_(d_min_ > 0.0),
      grid_(d_min_, n_),
      scratch_grid_(d_min_, n_) {
  // CSR adjacency (both directions) and the SoA edge list.
  std::vector<std::int32_t> degree(n_ + 1, 0);
  edge_a_.reserve(graph.edges().size());
  edge_b_.reserve(graph.edges().size());
  edge_w_.reserve(graph.edges().size());
  for (const auto& e : graph.edges()) {
    edge_a_.push_back(e.a);
    edge_b_.push_back(e.b);
    edge_w_.push_back(static_cast<double>(e.weight));
    ++degree[static_cast<std::size_t>(e.a)];
    ++degree[static_cast<std::size_t>(e.b)];
  }
  adj_start_.assign(n_ + 1, 0);
  for (std::size_t q = 0; q < n_; ++q) {
    adj_start_[q + 1] = adj_start_[q] + degree[q];
  }
  adj_qubit_.resize(static_cast<std::size_t>(adj_start_[n_]));
  adj_weight_.resize(adj_qubit_.size());
  std::vector<std::int32_t> fill(adj_start_.begin(), adj_start_.end() - 1);
  for (std::size_t e = 0; e < edge_a_.size(); ++e) {
    const auto a = static_cast<std::size_t>(edge_a_[e]);
    const auto b = static_cast<std::size_t>(edge_b_[e]);
    adj_qubit_[static_cast<std::size_t>(fill[a])] = edge_b_[e];
    adj_weight_[static_cast<std::size_t>(fill[a]++)] = edge_w_[e];
    adj_qubit_[static_cast<std::size_t>(fill[b])] = edge_a_[e];
    adj_weight_[static_cast<std::size_t>(fill[b]++)] = edge_w_[e];
  }

  const auto max_degree =
      static_cast<std::size_t>(*std::max_element(degree.begin(), degree.end()));
  term_buf_.resize(std::max(edge_a_.size(), max_degree + n_));
  xs_.assign(n_, 0.0);
  ys_.assign(n_, 0.0);
  scratch_xs_.assign(n_, 0.0);
  scratch_ys_.assign(n_, 0.0);
}

std::size_t DeltaPlacementObjective::collect_terms(std::size_t q, double px,
                                                   double py) {
  const auto start = static_cast<std::size_t>(adj_start_[q]);
  const auto deg = static_cast<std::size_t>(adj_start_[q + 1]) - start;
  double* const out = term_buf_.data();
  kernels::edge_terms_gather(adj_qubit_.data() + start,
                             adj_weight_.data() + start, deg, px, py,
                             xs_.data(), ys_.data(), out);
  std::size_t count = deg;
  if (!crowding_) return count;
  grid_.for_each_row_span(
      grid_.cell_of(px, py), [&](const std::int32_t* row, std::size_t size) {
        count += kernels::crowding_terms_excluding_self(
            row, size, static_cast<std::int32_t>(q), px, py, xs_.data(),
            ys_.data(), d_min_, denom_, crowding_weight_, out + count);
      });
  return count;
}

void DeltaPlacementObjective::accumulate_all(const double* xs,
                                             const double* ys,
                                             const geom::UniformGrid& grid,
                                             util::ExactSum& acc) {
  double* const out = term_buf_.data();
  kernels::edge_terms_pairs(edge_a_.data(), edge_b_.data(), edge_w_.data(),
                            edge_a_.size(), xs, ys, out);
  for (std::size_t t = 0; t < edge_a_.size(); ++t) acc.add(out[t]);
  if (!crowding_) return;
  for (std::size_t i = 0; i < n_; ++i) {
    grid.for_each_row_span(
        grid.cell(i), [&](const std::int32_t* row, std::size_t size) {
          const std::size_t produced = kernels::crowding_terms_above_self(
              row, size, static_cast<std::int32_t>(i), xs[i], ys[i], xs, ys,
              d_min_, denom_, crowding_weight_, out);
          for (std::size_t t = 0; t < produced; ++t) acc.add(out[t]);
        });
  }
}

double DeltaPlacementObjective::reset(const std::vector<double>& coords) {
  assert(coords.size() == 2 * n_);
  pending_ = false;
  for (std::size_t q = 0; q < n_; ++q) {
    xs_[q] = coords[2 * q];
    ys_[q] = coords[2 * q + 1];
  }
  grid_.assign(coords);

  acc_.clear();
  accumulate_all(xs_.data(), ys_.data(), grid_, acc_);
  value_ = acc_.round();
  return value_;
}

double DeltaPlacementObjective::propose(std::size_t q, double x, double y) {
  assert(q < n_);
  pending_acc_ = acc_;
  std::size_t count = collect_terms(q, xs_[q], ys_[q]);
  for (std::size_t t = 0; t < count; ++t) pending_acc_.subtract(term_buf_[t]);
  count = collect_terms(q, x, y);
  for (std::size_t t = 0; t < count; ++t) pending_acc_.add(term_buf_[t]);
  pending_q_ = q;
  pending_x_ = x;
  pending_y_ = y;
  pending_value_ = pending_acc_.round();
  pending_ = true;
  return pending_value_;
}

void DeltaPlacementObjective::commit() {
  assert(pending_ && "commit() without a prior propose()");
  acc_ = pending_acc_;
  grid_.move(pending_q_, pending_x_, pending_y_);
  xs_[pending_q_] = pending_x_;
  ys_[pending_q_] = pending_y_;
  value_ = pending_value_;
  pending_ = false;
}

void DeltaPlacementObjective::snapshot(std::vector<double>& coords) const {
  coords.resize(2 * n_);
  for (std::size_t q = 0; q < n_; ++q) {
    coords[2 * q] = xs_[q];
    coords[2 * q + 1] = ys_[q];
  }
}

double DeltaPlacementObjective::full(const std::vector<double>& coords) {
  assert(coords.size() == 2 * n_);
  // De-stride the query geometry once so every kernel below runs over
  // unit-stride SoA arrays.
  for (std::size_t q = 0; q < n_; ++q) {
    scratch_xs_[q] = coords[2 * q];
    scratch_ys_[q] = coords[2 * q + 1];
  }
  if (crowding_) scratch_grid_.assign(coords);
  util::ExactSum acc;
  accumulate_all(scratch_xs_.data(), scratch_ys_.data(), scratch_grid_, acc);
  return acc.round();
}

}  // namespace parallax::placement
