// Order statistics and metric naming rules shared by every workload.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

[[nodiscard]] double sum(const std::vector<double>& samples);
/// Arithmetic mean; 0 for no samples.
[[nodiscard]] double mean(const std::vector<double>& samples);

/// Median with the middle pair averaged for an even count; 0 for no samples.
[[nodiscard]] double median(std::vector<double> samples);

/// The latency tail: the highest percentile that leaves at least ten samples
/// beyond it, i.e. the eleventh-largest sample, at percentile 100 (n - 10) /
/// n. Fewer than twenty samples leave no such percentile above the median,
/// so the tail is then the median itself (percentile 50).
struct Tail {
  double percentile = 50.0;
  double value = 0.0;
};
[[nodiscard]] Tail tail(const std::vector<double>& samples);

/// A metric name: starts with a letter or digit; at most 64 of
/// [A-Za-z0-9_.-].
[[nodiscard]] bool valid_metric_name(std::string_view name);
/// A unit: 1 to 16 of [A-Za-z0-9_/%.-].
[[nodiscard]] bool valid_unit(std::string_view unit);

}  // namespace perfbench
