// The benchmark's metric contract and its result lines. The end-to-end and
// per-layer metric lists here are the ones BENCHMARK.json names (run.py's
// self-test compares them); the report line carries every per-layer value a
// workload measures, including those of layers other workloads lack.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bench.hpp"

namespace perfbench {

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics, reported by untraced runs on every workload.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// Per-layer metrics, reported by traced runs on every workload: the layers
/// every workload's traced run measures. A layer some workload lacks (the
/// compile passes on warm-serve, src/sim outside sim-shots) is reported in
/// the report line of the workloads that have it, never as a zero here.
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

/// What a run prints: the result line's metrics, plus the report.
struct RunResult {
  MetricSet metrics;
  /// Every per-layer value (medians over traced rounds), natural units.
  MetricSet layers;
  MetricSet extra;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// The run completed, checked its outputs and found no failure.
  bool correct = false;
};

[[nodiscard]] RunResult assemble(const RunConfig& run, const Outcome& outcome);

/// The report line: run configuration, metadata, all values and the first
/// failure messages, as one JSON object.
[[nodiscard]] std::string report_line(const RunConfig& run,
                                      const Outcome& outcome,
                                      const RunResult& result);
/// The final line: {"correct", "attempted", "failed", "metrics"}.
[[nodiscard]] std::string result_line(const RunResult& result);

/// Runs one workload by name; throws std::invalid_argument for an unknown
/// name.
[[nodiscard]] Outcome run_workload(const RunConfig& run);
[[nodiscard]] const std::vector<std::string>& workload_names();

/// The benchmark's self-tests (selftest.cpp); 0 when all pass.
[[nodiscard]] int self_test();

}  // namespace perfbench
