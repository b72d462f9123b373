// Plain-text table rendering for the paper artifacts. Every artifact prints
// the same rows/series the paper reports; this keeps the formatting uniform.
#pragma once

#include <string>
#include <vector>

namespace parallax::util {

/// A simple column-aligned text table. Cells are strings; numeric formatting
/// is the caller's responsibility (see format_* helpers below).
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  void add_row(std::vector<std::string> row);

  /// Renders with a header separator and right-aligned numeric-looking cells.
  [[nodiscard]] std::string to_string() const;

  [[nodiscard]] std::size_t rows() const noexcept { return rows_.size(); }
  [[nodiscard]] std::size_t cols() const noexcept { return header_.size(); }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-precision double formatting ("12.34").
[[nodiscard]] std::string format_fixed(double v, int precision);

/// Scientific formatting matching the paper's figures ("1.8e-02").
[[nodiscard]] std::string format_sci(double v, int precision = 1);

/// Compact formatting: integers print without decimals; large values use
/// scientific notation like the paper's tables ("5.7e4").
[[nodiscard]] std::string format_compact(double v);

/// Percentage with one decimal ("46.2%").
[[nodiscard]] std::string format_percent(double fraction);

}  // namespace parallax::util
