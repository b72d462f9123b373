#include "stats.hpp"

#include <algorithm>

namespace perfbench {

double sum(const std::vector<double>& samples) {
  double total = 0.0;
  for (const double value : samples) total += value;
  return total;
}

double mean(const std::vector<double>& samples) {
  return samples.empty() ? 0.0
                         : sum(samples) / static_cast<double>(samples.size());
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

Tail tail(const std::vector<double>& samples) {
  Tail result;
  const std::size_t n = samples.size();
  if (n < 20) {
    result.value = median(samples);
    return result;
  }
  std::vector<double> sorted = samples;
  std::sort(sorted.begin(), sorted.end());
  result.value = sorted[n - 11];
  result.percentile =
      100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return result;
}

namespace {

bool name_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
}

}  // namespace

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  const char first = name.front();
  if (first == '_' || first == '.' || first == '-') return false;
  return std::all_of(name.begin(), name.end(), name_char);
}

bool valid_unit(std::string_view unit) {
  if (unit.empty() || unit.size() > 16) return false;
  return std::all_of(unit.begin(), unit.end(), [](char c) {
    return name_char(c) || c == '/' || c == '%';
  });
}

}  // namespace perfbench
