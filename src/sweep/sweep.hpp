// The batch sweep driver: fans a circuit x technique x machine matrix across
// util::ThreadPool and returns structured per-cell results (stats, runtime,
// success probability, shot plans). This is the engine behind every bench
// binary, the CLI's --technique all mode, and the examples — the paper's
// 18 circuits x 3 techniques x 2 machines evaluation is one call.
//
// Guarantees:
//   * Determinism: a cell's result depends only on (circuit, technique,
//     machine, options) — never on thread count or completion order. Every
//     seed derives from (master seed, circuit name, stage salt).
//   * Shared work: each circuit is transpiled at most once per run, and
//     only when a cell compiles or the cache's transpile map does not yet
//     know its fingerprint. Every cell's pipeline borrows the run's
//     pipeline::PlacementMemo, through which the graphine-placement pass
//     shares the Graphine annealed placement per (effective input circuit,
//     placement options). Techniques that share
//     Step 1 (parallax, graphine) and machine variants of the same circuit
//     never recompute it — exactly the paper's methodology of reusing
//     placements across techniques.
//   * Isolation: a cell that fails to compile reports its error string;
//     the rest of the sweep completes.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "bench_circuits/registry.hpp"
#include "cache/cache.hpp"
#include "hardware/config.hpp"
#include "noise/model.hpp"
#include "pipeline/pipeline.hpp"
#include "shots/parallelize.hpp"
#include "technique/registry.hpp"

namespace parallax::util {
class ThreadPool;
}  // namespace parallax::util

namespace parallax::sweep {

struct Cell;

/// One circuit of the sweep matrix, with the label results are keyed by.
struct CircuitSpec {
  std::string name;
  circuit::Circuit circuit;
};

/// Builds specs for Table III benchmarks by acronym.
[[nodiscard]] std::vector<CircuitSpec> benchmark_circuits(
    const std::vector<std::string>& acronyms,
    const bench_circuits::GenOptions& gen = {});

/// All 18 Table III benchmarks.
[[nodiscard]] std::vector<CircuitSpec> all_benchmark_circuits(
    const bench_circuits::GenOptions& gen = {});

/// One hardware configuration of the sweep matrix.
struct MachineSpec {
  std::string name;
  hardware::HardwareConfig config;
};

struct Options {
  /// Base compile options for every cell (seed, spreads, scheduler knobs).
  /// The one per-cell adjustment is a technique's declared tuning
  /// (technique::Registry), applied before any key is derived.
  pipeline::CompileOptions compile{};
  /// Worker threads; 0 selects hardware concurrency.
  std::size_t n_threads = 0;
  /// Estimate noise::success_probability per cell.
  bool compute_success_probability = true;
  noise::NoiseOptions noise{};
  /// When set, compute the Fig. 11 parallelization series per cell.
  std::optional<shots::ShotOptions> shots;
  /// Persistent compilation cache. When set, the in-run placement memo
  /// consults and populates its disk tier (a rerun anneals nothing that any
  /// earlier run annealed), and whole cells short-circuit on result hits
  /// (incremental sweeps: a rerun only recompiles cells whose fingerprints
  /// changed). Null (the default) keeps pure in-run memoization. The run
  /// holds the cache's write_back() guard: workers' puts reach its memory
  /// tier at once, the thread that called run() performs their disk
  /// writes while the pool compiles, and every entry is on disk when run()
  /// returns.
  std::shared_ptr<cache::CompilationCache> cache;
  /// Cell ownership predicate over the flat circuit-major cell index. Cells
  /// for which it returns false are labeled but never compiled (Cell::skipped
  /// is set). This is the hook the shard layer (shard/shard.hpp) partitions
  /// the matrix through; null runs everything.
  std::function<bool(std::size_t flat_index)> cell_filter;
  /// Free-form origin label stamped into every executed cell
  /// (Cell::origin) — shard runners set "shard-K/N@host" so error cells in a
  /// merged multi-host campaign say where they ran. Not part of a cell's
  /// identity: canonical serializations exclude it, like pass timings.
  std::string provenance;
  /// Streaming hook: invoked once per executed cell (cache hits, unless
  /// on_cached_cell takes them, and error cells included; filtered and
  /// cancelled cells excluded) as the cell completes, from whichever
  /// worker thread ran it — callbacks for different cells may overlap, so
  /// the callee serializes its own output. The referenced Cell is fully
  /// populated and lives in the Result this run() eventually returns. Must
  /// not throw. Runtime-only: never part of a serialized spec, never part
  /// of a cell's identity.
  std::function<void(const Cell& cell)> on_cell;
  /// Warm-serving hook. When set, a result-cache hit is not decoded: the
  /// cache checks its payload with cache::scan_cell (a payload the scan
  /// rejects is a miss and recompiles), and this hook, not on_cell,
  /// receives the cell with its labels, flags and compile_seconds but an
  /// empty result, plus the cached bytes. Same threads and contract as
  /// on_cell; the Cell in the returned Result keeps the empty result.
  /// Computed and error cells still go to on_cell. The serve layer sets it
  /// to splice the bytes into a kCell frame (serve::cell_frame). Its
  /// presence is the only switch. Runtime-only.
  std::function<void(const Cell& cell, const cache::ScannedCell& cached)>
      on_cached_cell;
  /// Cooperative cancellation token. Checked once before each cell starts:
  /// when set to true, cells not yet started are marked Cell::cancelled and
  /// skipped, in-flight cells run to completion, and run() returns the
  /// partial Result with Result::cancelled set — so cancelling an in-flight
  /// sweep costs at most one cell's compile time. Runtime-only, like
  /// on_cell.
  std::shared_ptr<std::atomic<bool>> cancel;
  /// Borrowed worker pool. When set, run() fans cells across it instead of
  /// constructing a private pool (n_threads is then ignored) — the serve
  /// layer keeps one persistent pool across requests. Must not be called
  /// from one of the pool's own worker threads (the fan-out blocks its
  /// caller). Runtime-only.
  util::ThreadPool* pool = nullptr;
};

/// One (circuit, technique, machine) result.
struct Cell {
  std::string circuit;
  std::string technique;
  std::string machine;
  std::size_t circuit_index = 0;
  std::size_t technique_index = 0;
  std::size_t machine_index = 0;

  compiler::CompileResult result;
  double success_probability = 0.0;
  /// Fig. 11 series (only when Options::shots is set and the cell compiled).
  std::vector<shots::ParallelPlan> shot_plans;
  /// Wall time of the cell on its worker; the cache's disk writes, made
  /// later by the thread that called run(), are not in it.
  double compile_seconds = 0.0;
  /// The whole cell (result, success probability, shot plans) was served
  /// from the persistent cache; no pass ran.
  bool from_cache = false;
  /// Options::cell_filter excluded this cell: labels are set, nothing ran.
  bool skipped = false;
  /// Options::cancel fired before this cell started: labels are set,
  /// nothing ran, and Options::on_cell was not invoked for it.
  bool cancelled = false;
  /// Where the cell was computed (Options::provenance) — "" for plain
  /// in-process sweeps, "shard-K/N@host" under the shard runner. Carried by
  /// error cells too, so a failed cell of a merged campaign names its shard.
  std::string origin;
  /// Non-empty if compilation threw; `result` is then default-constructed.
  std::string error;

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

/// The three indices of a cell in its sweep matrix.
struct CellIndex {
  std::size_t circuit = 0;
  std::size_t technique = 0;
  std::size_t machine = 0;
};

/// The dimensions of a sweep matrix and its one cell order: the flat index
/// runs circuit-major, then technique, then machine. run(), the shard layer
/// and the serve layer's reassembly all encode and decode through it.
struct Matrix {
  std::size_t circuits = 0;
  std::size_t techniques = 0;
  std::size_t machines = 0;

  [[nodiscard]] std::size_t cells() const noexcept {
    return circuits * techniques * machines;
  }
  /// Whether the cell's indices name a cell of this matrix.
  [[nodiscard]] bool contains(const Cell& cell) const noexcept {
    return cell.circuit_index < circuits &&
           cell.technique_index < techniques && cell.machine_index < machines;
  }
  /// The flat index of the cell's indices.
  [[nodiscard]] std::size_t flat_index(const Cell& cell) const noexcept {
    return (cell.circuit_index * techniques + cell.technique_index) *
               machines +
           cell.machine_index;
  }
  /// The indices of flat index `flat`.
  [[nodiscard]] CellIndex index(std::size_t flat) const noexcept {
    return {flat / (techniques * machines), flat / machines % techniques,
            flat % machines};
  }
};

struct Result {
  /// Cells in deterministic circuit-major order (then technique, then
  /// machine), independent of thread count.
  std::vector<Cell> cells;
  double wall_seconds = 0.0;
  std::size_t threads_used = 0;
  /// Options::cancel fired before every cell completed; cells carry
  /// per-cell `cancelled` flags.
  bool cancelled = false;
  std::size_t placement_cache_hits = 0;
  std::size_t placement_cache_misses = 0;
  /// Transpiles this run performed (misses) and cells that shared one
  /// (hits). A cell needs the transpiled circuit only to compile it, or to
  /// fingerprint it when the cache's transpile map
  /// (CompilationCache::find_transpiled) does not know the circuit; a run
  /// whose every cell hits, on a handle that has seen its circuits,
  /// reports 0 and 0.
  std::size_t transpile_cache_hits = 0;
  std::size_t transpile_cache_misses = 0;
  /// Persistent-cache accounting (all zero when Options::cache is null).
  /// Placements loaded from the disk tier instead of annealed — a subset of
  /// placement_cache_misses (the in-run memo missed, the store hit).
  std::size_t placement_disk_hits = 0;
  /// Cells served whole from cached CompileResults / cells compiled and
  /// stored.
  std::size_t result_cache_hits = 0;
  std::size_t result_cache_misses = 0;
  /// Graphine anneals this run actually paid for — 0 for a fully warm sweep.
  /// Counted by the run's placement memo (never for memo, disk, or preset
  /// placements), so concurrent sweep::run calls in one process never
  /// attribute each other's anneals.
  std::size_t anneals = 0;

  /// Cell lookup by labels; empty `machine` matches the sole machine of a
  /// single-machine sweep (std::logic_error if the sweep had several).
  /// Throws std::out_of_range when absent.
  [[nodiscard]] const Cell& at(std::string_view circuit,
                               std::string_view technique,
                               std::string_view machine = {}) const;
};

/// Runs the full matrix. Technique names are validated against `registry`
/// up front (UnknownTechniqueError); per-cell compile errors are reported in
/// the cells, not thrown.
[[nodiscard]] Result run(
    const std::vector<CircuitSpec>& circuits,
    const std::vector<std::string>& techniques,
    const std::vector<MachineSpec>& machines, const Options& options = {},
    const technique::Registry& registry = technique::Registry::global());

}  // namespace parallax::sweep
