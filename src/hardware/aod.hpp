// The acousto-optic deflector: a crossed array of `rows` horizontal and
// `cols` vertical trap lines. Hardware constraints (paper Sec. I-A):
//   (1) lines of the same orientation can never cross (relative order of
//       coordinates is invariant),
//   (2) all traps on a line move in tandem (Parallax sidesteps this by
//       placing at most one atom per row/column pair),
//   (3) atoms obey the global minimum separation distance.
// The Aod class owns line coordinates and occupancy. Its coordinate writes
// are unchecked; ordering_valid() checks (1). The scheduler keeps (1)
// through MovementEngine::make_room (parallax/movement.hpp), which pushes
// neighbour lines aside before a line moves, and (3) through the Machine,
// which sees all atoms.
#pragma once

#include <cstdint>
#include <vector>

namespace parallax::hardware {

class Aod {
 public:
  /// Lines are created unassigned with evenly spaced home coordinates over
  /// [0, extent_um].
  Aod(std::int32_t n_rows, std::int32_t n_cols, double extent_um,
      double min_line_gap_um);

  [[nodiscard]] std::int32_t n_rows() const noexcept {
    return static_cast<std::int32_t>(rows_.size());
  }
  [[nodiscard]] std::int32_t n_cols() const noexcept {
    return static_cast<std::int32_t>(cols_.size());
  }
  [[nodiscard]] double min_line_gap() const noexcept { return min_gap_; }

  [[nodiscard]] double row_coord(std::int32_t row) const {
    return rows_[static_cast<std::size_t>(row)].coord;
  }
  [[nodiscard]] double col_coord(std::int32_t col) const {
    return cols_[static_cast<std::size_t>(col)].coord;
  }
  [[nodiscard]] std::int32_t row_qubit(std::int32_t row) const {
    return rows_[static_cast<std::size_t>(row)].qubit;
  }
  [[nodiscard]] std::int32_t col_qubit(std::int32_t col) const {
    return cols_[static_cast<std::size_t>(col)].qubit;
  }

  /// Assigns a qubit to a (row, col) pair. Both must be free.
  void assign(std::int32_t row, std::int32_t col, std::int32_t qubit);
  /// Releases the pair holding `qubit` (row and col become free).
  void release(std::int32_t row, std::int32_t col);

  /// Unchecked coordinate write: the caller keeps the ordering (see the
  /// file comment).
  void set_row_coord(std::int32_t row, double coord);
  void set_col_coord(std::int32_t col, double coord);

  /// True if all row coordinates and all column coordinates are strictly
  /// increasing with the required gap (the non-crossing invariant).
  [[nodiscard]] bool ordering_valid() const;

 private:
  struct Line {
    double coord = 0.0;
    std::int32_t qubit = -1;  // -1 = free
  };

  std::vector<Line> rows_;  // indexed south-to-north; coord = y
  std::vector<Line> cols_;  // indexed west-to-east; coord = x
  double min_gap_;
};

}  // namespace parallax::hardware
