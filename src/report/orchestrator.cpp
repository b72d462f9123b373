#include "report/orchestrator.hpp"

#include <exception>

#include "util/stopwatch.hpp"

namespace parallax::report {

namespace {

void fold(RunTotals& totals, const sweep::Result& result) {
  ++totals.sweeps;
  totals.cells += result.cells.size();
  for (const auto& cell : result.cells) {
    if (cell.skipped || cell.cancelled) continue;
    ++totals.executed_cells;
    if (!cell.ok()) ++totals.failed_cells;
  }
  totals.result_cache_hits += result.result_cache_hits;
  totals.result_cache_misses += result.result_cache_misses;
  totals.placement_disk_hits += result.placement_disk_hits;
  totals.anneals += result.anneals;
  totals.sweep_seconds += result.wall_seconds;
}

}  // namespace

std::pair<std::vector<ArtifactOutcome>, RunTotals> run_artifacts(
    const Registry& registry, const std::vector<std::string>& names,
    const RunSpec& run_spec, const OrchestratorOptions& options,
    std::FILE* out, std::FILE* log) {
  // Validate every name up front: a typo must fail before hours of sweeps.
  for (const auto& name : names) (void)registry.at(name);

  std::vector<ArtifactOutcome> outcomes;
  RunTotals totals;
  for (const auto& name : names) {
    const Artifact& artifact = registry.at(name);
    ArtifactOutcome outcome;
    outcome.name = name;
    const util::Stopwatch stopwatch;
    std::size_t sweep_index = 0;
    try {
      const Rendered rendered = generate(
          artifact, options.report, [&](const shard::SweepSpec& spec) {
            ++sweep_index;
            sweep::Result result = run_spec(spec);
            fold(totals, result);
            std::fprintf(log,
                         "[%s] sweep %zu: %zu cells, %zu result hits, "
                         "anneals=%zu in %.1fs\n",
                         name.c_str(), sweep_index, result.cells.size(),
                         result.result_cache_hits, result.anneals,
                         result.wall_seconds);
            return result;
          });
      // Render incrementally: each artifact's document is flushed as soon
      // as its sweeps complete, so a long `--all` run shows results as the
      // session streams through them.
      const std::string document =
          render(rendered, options.report, options.format);
      std::fwrite(document.data(), 1, document.size(), out);
      std::fflush(out);
      if (!rendered.volatile_text.empty()) {
        std::fprintf(log, "\n[%s] %s\n", name.c_str(),
                     rendered.volatile_text.c_str());
      }
      outcome.ok = true;
    } catch (const std::exception& error) {
      outcome.error = error.what();
      std::fprintf(log, "[%s] FAILED: %s\n", name.c_str(), error.what());
    }
    outcome.wall_seconds = stopwatch.seconds();
    outcomes.push_back(std::move(outcome));
  }
  return {std::move(outcomes), totals};
}

void print_accounting(std::FILE* log, std::size_t artifacts,
                      const RunTotals& totals, double session_seconds) {
  const std::uint64_t lookups =
      totals.result_cache_hits + totals.result_cache_misses;
  const double hit_rate =
      lookups == 0 ? 0.0
                   : 100.0 * static_cast<double>(totals.result_cache_hits) /
                         static_cast<double>(lookups);
  std::fprintf(log, "=== bench session accounting ===\n");
  std::fprintf(log,
               "artifacts: %zu   sweeps: %llu   cells: %llu "
               "(%llu executed, %llu failed)\n",
               artifacts, static_cast<unsigned long long>(totals.sweeps),
               static_cast<unsigned long long>(totals.cells),
               static_cast<unsigned long long>(totals.executed_cells),
               static_cast<unsigned long long>(totals.failed_cells));
  std::fprintf(log,
               "result cache: %llu hits, %llu misses (%.1f%% hits)   "
               "placements from disk: %llu\n",
               static_cast<unsigned long long>(totals.result_cache_hits),
               static_cast<unsigned long long>(totals.result_cache_misses),
               hit_rate,
               static_cast<unsigned long long>(totals.placement_disk_hits));
  std::fprintf(log, "anneals: %llu\n",
               static_cast<unsigned long long>(totals.anneals));
  std::fprintf(log, "sweep wall: %.1fs   session wall: %.1fs\n",
               totals.sweep_seconds, session_seconds);
}

void print_server_stats(std::FILE* log, const serve::SessionStats& stats) {
  std::fprintf(
      log,
      "server session: %llu requests, %llu cells executed (%llu failed), "
      "result cache %llu/%llu, placement cache %llu/%llu, anneals=%llu, "
      "%zu threads%s, up %.1fs\n",
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.cells_executed),
      static_cast<unsigned long long>(stats.cells_failed),
      static_cast<unsigned long long>(stats.result_cache_hits),
      static_cast<unsigned long long>(stats.result_cache_misses),
      static_cast<unsigned long long>(stats.placement_cache_hits),
      static_cast<unsigned long long>(stats.placement_cache_misses),
      static_cast<unsigned long long>(stats.anneals),
      static_cast<std::size_t>(stats.threads),
      stats.cache_enabled ? "" : ", no cache", stats.uptime_seconds);
  for (const serve::ClientStats& client : stats.clients) {
    std::fprintf(
        log,
        "  client %llu: %llu requests, %llu cells, anneals=%llu%s"
        "%s\n",
        static_cast<unsigned long long>(client.client_id),
        static_cast<unsigned long long>(client.requests),
        static_cast<unsigned long long>(client.cells_executed),
        static_cast<unsigned long long>(client.anneals),
        client.connected ? ", connected" : "",
        client.bytes_queued > 0
            ? (", " + std::to_string(client.bytes_queued) + " bytes queued")
                  .c_str()
            : "");
  }
}

}  // namespace parallax::report
