// The bench orchestrator: drives any subset of the artifact registry
// through one executor (a RunSpec: one warm session), rendering each
// artifact to `out` as soon as its sweeps complete and printing progress,
// volatile extras, and the session-wide accounting epilogue to `log`. This
// is the engine behind `parallax_cli bench`.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "report/artifact.hpp"
#include "report/render.hpp"
#include "serve/protocol.hpp"

namespace parallax::report {

struct OrchestratorOptions {
  Options report;
  Format format = Format::kTable;
};

struct ArtifactOutcome {
  std::string name;
  bool ok = false;
  /// Non-empty when !ok (failed cells, request failure).
  std::string error;
  double wall_seconds = 0.0;
};

/// Accounting folded from every sweep::Result one run_artifacts call saw —
/// the session-wide epilogue. The serve path carries the per-sweep tallies
/// in the request summary, so both executors fold alike.
struct RunTotals {
  std::uint64_t sweeps = 0;
  std::uint64_t cells = 0;
  std::uint64_t executed_cells = 0;
  std::uint64_t failed_cells = 0;
  std::uint64_t result_cache_hits = 0;
  std::uint64_t result_cache_misses = 0;
  std::uint64_t placement_disk_hits = 0;
  std::uint64_t anneals = 0;
  /// Sum of per-sweep wall clocks (the executor's compute time; the caller
  /// measures end-to-end wall separately).
  double sweep_seconds = 0.0;
};

/// Runs each named artifact in order through `run_spec` and returns one
/// outcome per artifact with the totals of every sweep. Unknown names throw
/// UnknownArtifactError before any work happens. A failing artifact is
/// reported in its outcome (and on `log`) and the remaining artifacts still
/// run. Rendered documents go to `out`; per-sweep progress lines
/// ("[fig09] sweep 1: …") and volatile extras to `log`.
std::pair<std::vector<ArtifactOutcome>, RunTotals> run_artifacts(
    const Registry& registry, const std::vector<std::string>& names,
    const RunSpec& run_spec, const OrchestratorOptions& options,
    std::FILE* out, std::FILE* log);

/// The session-wide accounting epilogue: artifacts, sweeps, cells, result
/// hits (with hit rate), placement disk hits, anneals, wall clocks. Printed
/// to `log` so the rendered stdout stays deterministic.
void print_accounting(std::FILE* log, std::size_t artifacts,
                      const RunTotals& totals, double session_seconds);

/// The server's lifetime accounting (a STATS reply) — printed after the
/// epilogue when the orchestrator ran against a socket session.
void print_server_stats(std::FILE* log, const serve::SessionStats& stats);

}  // namespace parallax::report
