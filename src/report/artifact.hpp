// The paper's artifacts as declarative registry entries.
//
// Each table/figure of the evaluation section used to be a standalone bench
// binary with its own process, its own suite sweep, and its own printf
// rendering. Here an artifact is data: a name, a sweep-spec planner, and a
// renderer that turns sweep::Results into rows plus derived summary lines.
// One orchestrator (report/orchestrator.hpp) drives any subset of the
// registry against one executor, a RunSpec (below) — in-process sweeps or a
// remote `parallax serve` socket (report/runner.hpp) — so regenerating the
// whole paper is a single command against one warm cache, and the
// rendering logic lives once, testably, in the library. `parallax_cli
// bench` is its one front end.
//
// Determinism contract: everything a renderer puts into Rendered::blocks
// and Rendered::summary is a pure function of (Options, sweep results) —
// never wall-clock. Timing-dependent extras (e.g. the per-pass compile-time
// profile) go into Rendered::volatile_text, which the drivers print to
// stderr. That is what lets CI byte-compare a warm rerun's rendered output
// against the cold run's.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "shard/spec.hpp"
#include "sweep/sweep.hpp"

namespace parallax::report {

/// Report-layer misuse and execution failures (failed sweep cells, spec
/// planning errors). UnknownArtifactError refines it for bad names.
class ReportError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class UnknownArtifactError : public ReportError {
 public:
  using ReportError::ReportError;
};

/// The inputs every artifact's plan/render is parameterized over — the
/// declarative replacements for the old per-binary environment reads.
struct Options {
  /// Master seed (every per-circuit stage seed derives from it).
  std::uint64_t seed = 42;
  /// Paper-scale VQE (~450k gates) instead of the reduced default.
  bool full_scale = false;
  /// When non-empty, restrict every suite-driven artifact to these Table III
  /// acronyms (each artifact intersects this with its own default list,
  /// preserving its order). Artifacts not built on the Table III suite
  /// (table02, compile-time) ignore it.
  std::vector<std::string> circuits;
};

/// One rendered table: optional title (printed as "<title>:" above the
/// table), header + rows, and note lines printed directly under the table.
struct Block {
  std::string title;
  std::vector<std::string> header;
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> notes;
};

/// A fully rendered artifact, ready for any output format (report/render.hpp).
struct Rendered {
  /// Registry name ("fig09"), paper title ("Figure 9"), and the preamble
  /// description line(s).
  std::string artifact;
  std::string title;
  std::string description;
  std::vector<Block> blocks;
  /// Derived summary lines (averages, paper-claim comparisons) printed after
  /// the blocks. Deterministic, like the blocks.
  std::vector<std::string> summary;
  /// Wall-clock-dependent extras (per-pass timing profiles). Printed to
  /// stderr by the drivers, never part of the canonical rendered document.
  std::string volatile_text;
};

/// One paper artifact: metadata plus the two capabilities the orchestrator
/// composes. `plan` is incremental: it is called with the results of every
/// spec it returned so far (in order) and returns the next batch to execute,
/// empty when planning is complete — most artifacts return all their specs
/// on the first call, but e.g. fig11's parallelization budgets depend on the
/// serial compile's footprints. `render` sees the full result list in plan
/// order; it is only invoked once every cell compiled cleanly.
struct Artifact {
  std::string name;
  std::string title;
  std::string description;
  std::function<std::vector<shard::SweepSpec>(
      const Options&, const std::vector<sweep::Result>&)>
      plan;
  std::function<Rendered(const Options&, const std::vector<sweep::Result>&)>
      render;
};

/// Registration-order collection of artifacts, keyed by unique name.
class Registry {
 public:
  Registry() = default;

  /// The eleven paper artifacts: table02-04, fig09-13, ablation,
  /// compile-time, sim-vs-model.
  [[nodiscard]] static const Registry& global();

  /// Throws ReportError on a duplicate name.
  void add(Artifact artifact);

  /// Lookup; at() throws UnknownArtifactError naming the known set.
  [[nodiscard]] const Artifact& at(const std::string& name) const;
  [[nodiscard]] const Artifact* find(const std::string& name) const noexcept;

  [[nodiscard]] std::vector<std::string> names() const;
  [[nodiscard]] std::size_t size() const noexcept { return artifacts_.size(); }

 private:
  std::vector<Artifact> artifacts_;
};

/// The executor an artifact's sweeps run through: executes one spec and
/// returns its flat circuit-major result. Request-level failures throw;
/// per-cell compile errors come back in the cells. report/runner.hpp builds
/// the in-process and serve-socket executors.
using RunSpec = std::function<sweep::Result(const shard::SweepSpec&)>;

/// Drives one artifact's full plan through `run_spec` and renders it. Throws
/// ReportError when any cell reports a compile error or did not run
/// (skipped or cancelled): an artifact built from partial results would
/// silently misreport the paper.
[[nodiscard]] Rendered generate(const Artifact& artifact,
                                const Options& options,
                                const RunSpec& run_spec);

}  // namespace parallax::report
