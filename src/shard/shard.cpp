#include "shard/shard.hpp"

#include <unistd.h>

#include <algorithm>
#include <map>
#include <utility>

#include "cache/archive.hpp"
#include "placement/graphine.hpp"

namespace parallax::shard {

namespace {

using cache::Reader;
using cache::Writer;

std::string local_host_name() {
  char buffer[256] = {};
  if (::gethostname(buffer, sizeof(buffer) - 1) != 0) return "localhost";
  return buffer[0] != '\0' ? std::string(buffer) : std::string("localhost");
}

/// The fields of a cell ahead of its result: labels, indices, error.
template <typename Archive, cache::MaybeConst<sweep::Cell> O>
void label_fields(Archive& ar, O& cell) {
  ar.str(cell.circuit);
  ar.str(cell.technique);
  ar.str(cell.machine);
  ar.u64(cell.circuit_index);
  ar.u64(cell.technique_index);
  ar.u64(cell.machine_index);
  ar.str(cell.error);
}

/// The byte-identity view of one cell: everything that constitutes the
/// cell's content, nothing that describes how/where it was computed.
template <typename Archive, cache::MaybeConst<sweep::Cell> O>
void canonical_fields(Archive& ar, O& cell) {
  label_fields(ar, cell);
  cache::fields(ar, cell.result);
  ar.f64(cell.success_probability);
  cache::fields(ar, cell.shot_plans);
}

/// The execution metadata that follows the canonical fields on the wire.
template <typename Archive, cache::MaybeConst<sweep::Cell> O>
void metadata_fields(Archive& ar, O& cell) {
  ar.str(cell.origin);
  ar.boolean(cell.from_cache);
  ar.f64(cell.compile_seconds);
}

template <typename Archive, cache::MaybeConst<sweep::Cell> O>
void fields(Archive& ar, O& cell) {
  canonical_fields(ar, cell);
  metadata_fields(ar, cell);
}

/// The size of an encoded empty cell: no cell of a run is smaller.
std::size_t empty_cell_bytes() {
  static const std::size_t bytes = [] {
    Writer writer;
    encode_cell(writer, sweep::Cell{});
    return writer.bytes().size();
  }();
  return bytes;
}

/// Cell indices and the matrix are checked by parse_shard_run, once the
/// walk is done.
template <typename Archive, cache::MaybeConst<ShardRun> O>
void fields(Archive& ar, O& run) {
  ar.u64(run.spec.hi);
  ar.u64(run.spec.lo);
  ar.u32(run.shard_index);
  ar.u32(run.shard_count);
  ar.u64(run.n_circuits);
  ar.u64(run.n_techniques);
  ar.u64(run.n_machines);
  // Bounded by the smallest encoded cell, not by one byte: a sweep::Cell is
  // hundreds of bytes in memory, so a crafted file backing each count with
  // one byte could reserve gigabytes.
  ar.items(run.cells, empty_cell_bytes(),
           [&](auto& cell) { fields(ar, cell); });
  ar.f64(run.wall_seconds);
  ar.u64(run.threads_used);
  ar.u64(run.placement_cache_hits);
  ar.u64(run.placement_cache_misses);
  ar.u64(run.transpile_cache_hits);
  ar.u64(run.transpile_cache_misses);
  ar.u64(run.placement_disk_hits);
  ar.u64(run.result_cache_hits);
  ar.u64(run.result_cache_misses);
  ar.u64(run.anneals);
}

std::string canonical_cell_bytes(const sweep::Cell& cell) {
  Writer writer;
  cache::FieldWriter ar(writer);
  canonical_fields(ar, cell);
  return writer.take();
}

/// Matrix size from untrusted (file-supplied) dimensions, overflow-checked
/// and capped: the frame checksum is an integrity check, not a security
/// boundary, and a crafted header must yield ShardError — never a wrapped
/// multiply indexing out of bounds or a terabyte resize.
std::size_t checked_total_cells(std::uint64_t n_circuits,
                                std::uint64_t n_techniques,
                                std::uint64_t n_machines) {
  constexpr std::uint64_t kMaxCells = 1ull << 24;  // far beyond any campaign
  if (n_circuits == 0 || n_techniques == 0 || n_machines == 0) {
    throw ShardError("shard run declares an empty matrix axis");
  }
  if (n_circuits > kMaxCells || n_techniques > kMaxCells ||
      n_machines > kMaxCells ||
      n_circuits * n_techniques > kMaxCells ||
      n_circuits * n_techniques * n_machines > kMaxCells) {
    throw ShardError("shard run declares an implausibly large matrix");
  }
  return static_cast<std::size_t>(n_circuits * n_techniques * n_machines);
}

void fold_sweep_accounting(ShardRun& run, const sweep::Result& swept) {
  run.wall_seconds = swept.wall_seconds;
  run.threads_used = swept.threads_used;
  run.placement_cache_hits = swept.placement_cache_hits;
  run.placement_cache_misses = swept.placement_cache_misses;
  run.transpile_cache_hits = swept.transpile_cache_hits;
  run.transpile_cache_misses = swept.transpile_cache_misses;
  run.placement_disk_hits = swept.placement_disk_hits;
  run.result_cache_hits = swept.result_cache_hits;
  run.result_cache_misses = swept.result_cache_misses;
}

}  // namespace

void encode_cell(Writer& writer, const sweep::Cell& cell) {
  cache::FieldWriter ar(writer);
  fields(ar, cell);
}

void encode_cell(Writer& writer, const sweep::Cell& cell,
                 const cache::ScannedCell& cached) {
  cache::FieldWriter ar(writer);
  label_fields(ar, cell);
  writer.raw(cached.result());
  writer.f64(cached.success_probability);
  writer.raw(cached.shot_plans());
  metadata_fields(ar, cell);
}

sweep::Cell decode_cell(Reader& reader) {
  sweep::Cell cell;
  cache::FieldReader ar(reader);
  fields(ar, cell);
  return cell;
}

CellRange shard_cell_range(std::size_t total_cells, std::uint32_t shard_count,
                           std::uint32_t shard_index) {
  if (shard_count == 0) throw ShardError("shard_count must be at least 1");
  if (shard_index >= shard_count) {
    throw ShardError("shard_index outside [0, shard_count)");
  }
  const std::size_t base = total_cells / shard_count;
  const std::size_t remainder = total_cells % shard_count;
  CellRange range;
  range.begin = shard_index * base + std::min<std::size_t>(shard_index,
                                                           remainder);
  range.end = range.begin + base + (shard_index < remainder ? 1 : 0);
  return range;
}

std::vector<ShardSpec> plan(const SweepSpec& spec, std::uint32_t shard_count,
                            const technique::Registry& registry) {
  if (shard_count == 0) throw ShardError("shard_count must be at least 1");
  if (spec.circuits.empty() || spec.techniques.empty() ||
      spec.machines.empty()) {
    throw ShardError("cannot plan shards over an empty matrix axis");
  }
  for (const auto& technique : spec.techniques) (void)registry.info(technique);
  // Serializability is part of plan's contract — fail here, not on a remote
  // host with half a campaign already running.
  (void)sweep_spec_payload(spec);
  std::vector<ShardSpec> shards;
  shards.reserve(shard_count);
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    shards.push_back({spec, i, shard_count});
  }
  return shards;
}

ShardRun run_shard(const ShardSpec& spec, const RunnerOptions& runner,
                   const technique::Registry& registry) {
  if (spec.shard_count == 0 || spec.shard_index >= spec.shard_count) {
    throw ShardError("shard spec has shard_index outside [0, shard_count)");
  }
  const std::size_t total = spec.sweep.total_cells();
  const CellRange owned =
      shard_cell_range(total, spec.shard_count, spec.shard_index);

  ShardRun run;
  run.spec = spec_digest(spec.sweep);
  run.shard_index = spec.shard_index;
  run.shard_count = spec.shard_count;
  run.n_circuits = spec.sweep.circuits.size();
  run.n_techniques = spec.sweep.techniques.size();
  run.n_machines = spec.sweep.machines.size();

  sweep::Options options = spec.sweep.options;
  options.n_threads = runner.n_threads;
  options.cache = runner.cache;
  options.cell_filter = [owned](std::size_t flat) {
    return owned.contains(flat);
  };
  options.provenance =
      !runner.provenance.empty()
          ? runner.provenance
          : "shard-" + std::to_string(spec.shard_index) + "/" +
                std::to_string(spec.shard_count) + "@" + local_host_name();

  sweep::Result swept =
      sweep::run(spec.sweep.circuits, spec.sweep.techniques,
                 spec.sweep.machines, options, registry);
  run.anneals = swept.anneals;
  fold_sweep_accounting(run, swept);
  run.cells.reserve(owned.size());
  for (auto& cell : swept.cells) {
    if (!cell.skipped) run.cells.push_back(std::move(cell));
  }
  return run;
}

sweep::Result merge(std::vector<ShardRun> runs) {
  if (runs.empty()) throw ShardError("merge needs at least one shard run");
  const ShardRun& first = runs.front();
  for (const auto& run : runs) {
    if (run.spec != first.spec) {
      throw ShardError("cannot merge shard runs from different sweep specs");
    }
    if (run.shard_count != first.shard_count) {
      throw ShardError("cannot merge shard runs from different plans");
    }
    if (run.n_circuits != first.n_circuits ||
        run.n_techniques != first.n_techniques ||
        run.n_machines != first.n_machines) {
      throw ShardError("shard runs disagree on the matrix dimensions");
    }
  }
  const std::size_t total = checked_total_cells(
      first.n_circuits, first.n_techniques, first.n_machines);
  const sweep::Matrix matrix{static_cast<std::size_t>(first.n_circuits),
                             static_cast<std::size_t>(first.n_techniques),
                             static_cast<std::size_t>(first.n_machines)};

  // Cells by flat index. Everything is sized by the cells the runs carry,
  // never by the declared matrix, which a crafted run file can inflate.
  std::map<std::size_t, sweep::Cell*> by_flat;
  sweep::Result merged;
  for (auto& run : runs) {
    for (auto& cell : run.cells) {
      if (!matrix.contains(cell)) {
        throw ShardError("shard run contains a cell outside the matrix: " +
                         cell.circuit + "/" + cell.technique + "/" +
                         cell.machine);
      }
      const auto [at, inserted] =
          by_flat.emplace(matrix.flat_index(cell), &cell);
      if (!inserted) {
        const bool identical =
            canonical_cell_bytes(*at->second) == canonical_cell_bytes(cell);
        throw ShardError(std::string(identical ? "duplicate" : "conflicting") +
                         " cell in shard runs: " + cell.circuit + "/" +
                         cell.technique + "/" + cell.machine +
                         (identical ? " (two shards own the same cell)"
                                    : " (same cell, different content — "
                                      "determinism violation)"));
      }
    }
    merged.placement_cache_hits += run.placement_cache_hits;
    merged.placement_cache_misses += run.placement_cache_misses;
    merged.transpile_cache_hits += run.transpile_cache_hits;
    merged.transpile_cache_misses += run.transpile_cache_misses;
    merged.placement_disk_hits += run.placement_disk_hits;
    merged.result_cache_hits += run.result_cache_hits;
    merged.result_cache_misses += run.result_cache_misses;
    merged.anneals += static_cast<std::size_t>(run.anneals);
    merged.wall_seconds = std::max(merged.wall_seconds, run.wall_seconds);
    merged.threads_used = std::max(merged.threads_used,
                                   static_cast<std::size_t>(run.threads_used));
  }
  // Every flat index is below `total`, so the first gap in the sorted keys
  // (or the end) is the lowest missing cell.
  std::size_t missing = 0;
  for (const auto& entry : by_flat) {
    if (entry.first != missing) break;
    ++missing;
  }
  if (missing < total) {
    const sweep::CellIndex at = matrix.index(missing);
    throw ShardError("missing cell in shard runs: circuit " +
                     std::to_string(at.circuit) + ", technique " +
                     std::to_string(at.technique) + ", machine " +
                     std::to_string(at.machine));
  }
  merged.cells.reserve(total);
  for (const auto& entry : by_flat) {
    merged.cells.push_back(std::move(*entry.second));
  }
  return merged;
}

std::string canonical_bytes(const sweep::Result& result) {
  Writer writer;
  cache::FieldWriter ar(writer);
  ar.items(result.cells, 0,
           [&](const sweep::Cell& cell) { canonical_fields(ar, cell); });
  return writer.take();
}

std::string serialize_shard_run(const ShardRun& run) {
  Writer writer;
  cache::FieldWriter ar(writer);
  fields(ar, run);
  return frame_payload(FileKind::kShardRun, writer.take());
}

ShardRun parse_shard_run(std::string_view bytes) {
  const std::string payload = unframe_payload(FileKind::kShardRun, bytes);
  Reader reader(payload);
  cache::FieldReader ar(reader);
  ShardRun run;
  fields(ar, run);
  reader.expect_end();
  const std::size_t total =
      checked_total_cells(run.n_circuits, run.n_techniques, run.n_machines);
  if (run.cells.size() > total) {
    throw ShardError("shard run carries more cells than its matrix holds");
  }
  for (const sweep::Cell& cell : run.cells) {
    if (cell.circuit_index >= run.n_circuits ||
        cell.technique_index >= run.n_techniques ||
        cell.machine_index >= run.n_machines) {
      throw ShardError("shard run cell indexes outside its matrix");
    }
  }
  if (run.shard_count == 0 || run.shard_index >= run.shard_count) {
    throw ShardError("shard run has shard_index outside [0, shard_count)");
  }
  return run;
}

}  // namespace parallax::shard
