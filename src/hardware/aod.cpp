#include "hardware/aod.hpp"

#include <cassert>

namespace parallax::hardware {

Aod::Aod(std::int32_t n_rows, std::int32_t n_cols, double extent_um,
         double min_line_gap_um)
    : min_gap_(min_line_gap_um) {
  assert(n_rows > 0 && n_cols > 0);
  rows_.resize(static_cast<std::size_t>(n_rows));
  cols_.resize(static_cast<std::size_t>(n_cols));
  // Evenly spaced home coordinates (degenerate single-line case sits in the
  // middle of the field).
  auto spread = [extent_um](std::vector<Line>& lines) {
    const auto n = lines.size();
    for (std::size_t i = 0; i < n; ++i) {
      lines[i].coord = n == 1
                           ? extent_um / 2.0
                           : extent_um * static_cast<double>(i) /
                                 static_cast<double>(n - 1);
    }
  };
  spread(rows_);
  spread(cols_);
}

void Aod::assign(std::int32_t row, std::int32_t col, std::int32_t qubit) {
  auto& r = rows_[static_cast<std::size_t>(row)];
  auto& c = cols_[static_cast<std::size_t>(col)];
  assert(r.qubit < 0 && c.qubit < 0);
  r.qubit = qubit;
  c.qubit = qubit;
}

void Aod::release(std::int32_t row, std::int32_t col) {
  rows_[static_cast<std::size_t>(row)].qubit = -1;
  cols_[static_cast<std::size_t>(col)].qubit = -1;
}

void Aod::set_row_coord(std::int32_t row, double coord) {
  rows_[static_cast<std::size_t>(row)].coord = coord;
}
void Aod::set_col_coord(std::int32_t col, double coord) {
  cols_[static_cast<std::size_t>(col)].coord = coord;
}

bool Aod::ordering_valid() const {
  auto ordered = [this](const std::vector<Line>& lines) {
    for (std::size_t i = 1; i < lines.size(); ++i) {
      if (lines[i].coord - lines[i - 1].coord < min_gap_ - 1e-9) return false;
    }
    return true;
  };
  return ordered(rows_) && ordered(cols_);
}

}  // namespace parallax::hardware
