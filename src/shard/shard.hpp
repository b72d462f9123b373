// Deterministic sweep sharding: a pure partition-and-merge over the
// circuit x technique x machine matrix, mediated by the persistent
// compilation cache.
//
// The flat circuit-major cell ordering of sweep::Result is the coordinate
// system: plan() splits [0, total_cells) into shard_count contiguous,
// balanced ranges; run_shard() executes one range via sweep::run (cells a
// shard does not own are filtered out before any work happens); merge()
// recombines shard outputs into one sweep::Result whose cells are
// byte-identical to an unsharded run — verified cell by cell, with
// duplicate, missing, and conflicting cells all rejected loudly.
//
// Why this is sound: a cell's result depends only on (circuit, technique,
// machine, options) — never on thread count, completion order, or which
// shard computed it (sweep/sweep.hpp's determinism contract). Sharding
// therefore changes wall-clock structure and nothing else. Shards pointed
// at a shared PARALLAX_CACHE_DIR never duplicate an anneal: the first shard
// to need a placement persists it and every other shard loads it from the
// disk tier (ShardRun::anneals counts what each shard actually paid, so a
// campaign can prove the no-duplicate-work property).
//
// What byte-identity covers: canonical_bytes() serializes labels, indices,
// errors, compile results (sans pass timings), success probabilities, and
// shot plans. Wall-clock observations (compile_seconds, wall_seconds),
// cache accounting, and provenance (Cell::origin) are execution metadata,
// excluded for the same reason pass timings are excluded from the result
// cache.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "cache/cache.hpp"
#include "shard/spec.hpp"
#include "sweep/sweep.hpp"
#include "technique/registry.hpp"
#include "util/hash.hpp"

namespace parallax::shard {

/// Half-open slice [begin, end) of the flat circuit-major cell index space.
struct CellRange {
  std::size_t begin = 0;
  std::size_t end = 0;
  [[nodiscard]] std::size_t size() const noexcept { return end - begin; }
  [[nodiscard]] bool contains(std::size_t flat) const noexcept {
    return flat >= begin && flat < end;
  }
};

/// The deterministic partition: contiguous balanced ranges in flat order
/// (the first `total % count` shards get one extra cell). Contiguity keeps
/// a circuit's cells on as few shards as possible — the in-run memos then
/// share transpilation/placements within a shard, and the persistent cache
/// carries them across the few boundary crossings. Throws ShardError when
/// count == 0 or index >= count.
[[nodiscard]] CellRange shard_cell_range(std::size_t total_cells,
                                         std::uint32_t shard_count,
                                         std::uint32_t shard_index);

/// Splits a spec into shard_count self-contained shard specs, one per
/// shard, in shard-index order. Validates technique names up front so a bad
/// plan fails here, not on a remote host. Throws ShardError / technique::
/// UnknownTechniqueError.
[[nodiscard]] std::vector<ShardSpec> plan(
    const SweepSpec& spec, std::uint32_t shard_count,
    const technique::Registry& registry = technique::Registry::global());

/// Runtime knobs for executing one shard — everything a spec deliberately
/// does not pin down.
struct RunnerOptions {
  /// Worker threads; 0 selects hardware concurrency.
  std::size_t n_threads = 0;
  /// Shared persistent cache; shards sharing one directory never duplicate
  /// an anneal. Null compiles everything locally.
  std::shared_ptr<cache::CompilationCache> cache;
  /// Origin stamped into every cell (Cell::origin); empty derives
  /// "shard-K/N@<hostname>".
  std::string provenance;
};

/// One executed shard: the owned cells (flat order) plus enough context for
/// merge to validate coverage, and accounting for campaign reporting.
struct ShardRun {
  /// spec_digest of the plan's SweepSpec; merge refuses mixed digests.
  util::Digest128 spec;
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  std::uint64_t n_circuits = 0;
  std::uint64_t n_techniques = 0;
  std::uint64_t n_machines = 0;
  /// Owned cells only, in flat circuit-major order.
  std::vector<sweep::Cell> cells;

  // Execution metadata (excluded from canonical bytes).
  double wall_seconds = 0.0;
  std::uint64_t threads_used = 0;
  std::uint64_t placement_cache_hits = 0;
  std::uint64_t placement_cache_misses = 0;
  std::uint64_t transpile_cache_hits = 0;
  std::uint64_t transpile_cache_misses = 0;
  std::uint64_t placement_disk_hits = 0;
  std::uint64_t result_cache_hits = 0;
  std::uint64_t result_cache_misses = 0;
  /// Graphine anneals this shard actually performed. Across a campaign with
  /// a shared cache directory, the sum over shards equals the unsharded
  /// run's count — the zero-duplicate-anneal property.
  std::uint64_t anneals = 0;
};

/// Executes one shard in-process via sweep::run with the ownership filter.
/// The spec's runtime-only option fields are overridden by `runner`.
[[nodiscard]] ShardRun run_shard(
    const ShardSpec& spec, const RunnerOptions& runner = {},
    const technique::Registry& registry = technique::Registry::global());

/// Recombines shard outputs into the sweep::Result an unsharded run would
/// have produced: cells in flat order, counters summed, wall_seconds the
/// max over shards (the campaign's critical path). Taken by value so cells
/// move rather than deep-copy — pass std::move(runs) when the runs are
/// dead afterwards (a paper-scale campaign's cells are most of its
/// memory). Throws ShardError on
///   * outputs from different plans (spec digest / shard count / matrix
///     dimensions disagree),
///   * duplicate cells (same flat index twice, identical content),
///   * conflicting cells (same flat index, different content — a
///     determinism violation, never silently resolved),
///   * missing cells (coverage gaps).
[[nodiscard]] sweep::Result merge(std::vector<ShardRun> runs);

/// Canonical deterministic serialization of a sweep::Result's cells — the
/// byte-identity artifact the differential tests and the CI shard job diff.
/// Covers labels, indices, errors, results (pass timings excluded by the
/// cache codec), success probabilities, and shot plans; excludes wall-clock
/// observations, cache accounting, and provenance.
[[nodiscard]] std::string canonical_bytes(const sweep::Result& result);

// --- per-cell wire codec ------------------------------------------------------

/// One executed cell on the wire: the canonical content (labels, indices,
/// error, result, success probability, shot plans) plus execution metadata
/// (origin, from_cache, compile_seconds). This is the per-cell record of
/// shard-run files and of the serve layer's streamed cell frames.
void encode_cell(cache::Writer& writer, const sweep::Cell& cell);
/// encode_cell of a result-cache hit left as bytes: `cell`'s labels,
/// error and metadata around the cached result, success probability and
/// shot plans, copied in without a decode. Byte-identical to encode_cell
/// of the decoded cell, because the cache payload encodes those sections
/// with the same field lists (cache/serialize.hpp).
void encode_cell(cache::Writer& writer, const sweep::Cell& cell,
                 const cache::ScannedCell& cached);
/// Throws cache::ReadError on malformed bytes. Index plausibility is the
/// caller's job (the decoded indices are file-supplied).
[[nodiscard]] sweep::Cell decode_cell(cache::Reader& reader);

// --- shard-run file round trip (what `parallax shard run` writes) -------------

[[nodiscard]] std::string serialize_shard_run(const ShardRun& run);
/// Throws cache::ReadError on corruption, ShardError on semantic nonsense.
[[nodiscard]] ShardRun parse_shard_run(std::string_view bytes);

}  // namespace parallax::shard
