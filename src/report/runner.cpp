#include "report/runner.hpp"

#include <exception>
#include <mutex>
#include <utility>

#include "report/artifact.hpp"
#include "shard/shard.hpp"

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
  if (config_.shards > 1) {
    // The multi-host campaign shape, in one process: partition the matrix,
    // run each shard, merge. Byte-identical to the plain path by the shard
    // layer's differential guarantee.
    return shard::run_sharded(spec.circuits, spec.techniques, spec.machines,
                              config_.shards, options);
  }
  return sweep::run(spec.circuits, spec.techniques, spec.machines, options);
}

sweep::Result ServiceRunner::execute(const shard::SweepSpec& spec) {
  serve::Reassembly reassembly(spec);
  std::mutex mutex;  // cell callbacks may overlap across worker threads
  // A cell the reassembly refuses fails the request once it has drained;
  // the callback itself must not throw.
  std::exception_ptr refused;
  const auto ticket = service_.submit(
      spec, [&](const sweep::Cell& cell) {
        {
          std::lock_guard lock(mutex);
          try {
            (void)reassembly.place(sweep::Cell(cell));
          } catch (...) {
            if (!refused) refused = std::current_exception();
          }
        }
        if (on_cell_) on_cell_(cell);
      });
  const serve::Summary& summary = ticket->wait();
  if (refused) std::rethrow_exception(refused);
  if (!summary.ok()) {
    throw ReportError("serve session request failed: " + summary.error);
  }
  return std::move(reassembly).finish(summary);
}

sweep::Result ClientRunner::execute(const shard::SweepSpec& spec) {
  serve::ClientOutcome outcome = client_.run(spec, on_cell_);
  if (!outcome.summary.ok()) {
    throw ReportError("serve request failed: " + outcome.summary.error);
  }
  return std::move(outcome.result);
}

}  // namespace parallax::report
