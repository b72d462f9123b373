// Minimal CSV writing: RFC-4180-style escaping as string helpers (what the
// report layer's --format csv renderer emits).
#pragma once

#include <string>
#include <vector>

namespace parallax::util {

/// Quotes `cell` when it contains a comma, quote, or newline; embedded
/// quotes are doubled. Cells without special characters pass through.
[[nodiscard]] std::string csv_escape(const std::string& cell);

/// One CSV record: escaped cells joined by commas, newline-terminated.
[[nodiscard]] std::string csv_line(const std::vector<std::string>& cells);

}  // namespace parallax::util
