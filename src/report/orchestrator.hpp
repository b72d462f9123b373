// The bench orchestrator: drives any subset of the artifact registry
// through one Runner (one warm session), rendering each artifact to `out`
// as soon as its sweeps complete and printing progress, volatile extras,
// and the session-wide accounting epilogue to `log`. This is the engine
// behind `parallax_cli bench`.
#pragma once

#include <cstdio>
#include <string>
#include <vector>

#include "report/artifact.hpp"
#include "report/render.hpp"
#include "report/runner.hpp"

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

/// Runs each named artifact in order. Unknown names throw
/// UnknownArtifactError before any work happens. A failing artifact is
/// reported in its outcome (and on `log`) and the remaining artifacts still
/// run. Rendered documents go to `out`; per-sweep progress lines
/// ("[fig09] sweep 1: …") and volatile extras to `log`.
std::vector<ArtifactOutcome> run_artifacts(
    const Registry& registry, const std::vector<std::string>& names,
    Runner& runner, const OrchestratorOptions& options, std::FILE* out,
    std::FILE* log);

/// The session-wide accounting epilogue: artifacts, sweeps, cells, result
/// hits (with hit rate), placement disk hits, anneals, wall clocks. Printed
/// to `log` so the rendered stdout stays deterministic.
void print_accounting(std::FILE* log, std::size_t artifacts,
                      const RunTotals& totals, double session_seconds);

/// The server's lifetime accounting (a STATS reply) — printed after the
/// epilogue when the orchestrator ran against a socket session.
void print_server_stats(std::FILE* log, const serve::SessionStats& stats);

}  // namespace parallax::report
