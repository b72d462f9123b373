#include "report/runner.hpp"

#include <utility>

#include "report/artifact.hpp"

namespace parallax::report {

sweep::Result Runner::run(const shard::SweepSpec& spec) {
  sweep::Result result = execute(spec);
  ++totals_.sweeps;
  totals_.cells += result.cells.size();
  for (const auto& cell : result.cells) {
    if (cell.skipped || cell.cancelled) continue;
    ++totals_.executed_cells;
    if (!cell.ok()) ++totals_.failed_cells;
  }
  totals_.result_cache_hits += result.result_cache_hits;
  totals_.result_cache_misses += result.result_cache_misses;
  totals_.placement_disk_hits += result.placement_disk_hits;
  totals_.anneals += result.anneals;
  totals_.sweep_seconds += result.wall_seconds;
  return result;
}

sweep::Result InProcessRunner::execute(const shard::SweepSpec& spec) {
  sweep::Options options = spec.options;
  options.n_threads = config_.n_threads;
  options.cache = config_.cache;
  options.on_cell = on_cell_;
  return sweep::run(spec.circuits, spec.techniques, spec.machines, options);
}

sweep::Result ClientRunner::execute(const shard::SweepSpec& spec) {
  serve::ClientOutcome outcome = client_.run(spec, on_cell_);
  if (!outcome.summary.ok()) {
    throw ReportError("serve request failed: " + outcome.summary.error);
  }
  return std::move(outcome.result);
}

}  // namespace parallax::report
