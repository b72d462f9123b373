#include "sweep/sweep.hpp"

#include <atomic>
#include <functional>
#include <optional>
#include <stdexcept>
#include <utility>

#include "circuit/transpile.hpp"
#include "pipeline/placement_memo.hpp"
#include "sim/simulator.hpp"
#include "util/memo.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace parallax::sweep {

namespace {

using util::Stopwatch;

/// Overwrites the timing entry of `pass_name` (when present) with the cost
/// the sweep driver actually paid for that stage outside the pipeline —
/// memo/cache lookups run before Pipeline::run, so the in-pipeline pass is
/// a near-zero passthrough and its raw timing would misreport the stage.
void attribute_stage_timing(compiler::CompileResult& result,
                            std::string_view pass_name, double seconds,
                            bool cached) {
  for (auto& timing : result.pass_timings) {
    if (timing.pass == pass_name) {
      timing.seconds = seconds;
      timing.cached = cached;
      return;
    }
  }
}

}  // namespace

std::vector<CircuitSpec> benchmark_circuits(
    const std::vector<std::string>& acronyms,
    const bench_circuits::GenOptions& gen) {
  std::vector<CircuitSpec> specs;
  specs.reserve(acronyms.size());
  for (const auto& acronym : acronyms) {
    specs.push_back({acronym, bench_circuits::make_benchmark(acronym, gen)});
  }
  return specs;
}

std::vector<CircuitSpec> all_benchmark_circuits(
    const bench_circuits::GenOptions& gen) {
  std::vector<std::string> acronyms;
  for (const auto& info : bench_circuits::all_benchmarks()) {
    acronyms.push_back(info.acronym);
  }
  return benchmark_circuits(acronyms, gen);
}

const Cell& Result::at(std::string_view circuit, std::string_view technique,
                       std::string_view machine) const {
  if (machine.empty()) {
    for (const auto& cell : cells) {
      if (cell.machine_index > 0) {
        throw std::logic_error(
            "sweep::Result::at needs a machine label on a multi-machine "
            "sweep");
      }
    }
  }
  for (const auto& cell : cells) {
    if (cell.circuit == circuit && cell.technique == technique &&
        (machine.empty() || cell.machine == machine)) {
      return cell;
    }
  }
  throw std::out_of_range("no sweep cell for circuit '" +
                          std::string(circuit) + "', technique '" +
                          std::string(technique) + "', machine '" +
                          std::string(machine) + "'");
}

Result run(const std::vector<CircuitSpec>& circuits,
           const std::vector<std::string>& techniques,
           const std::vector<MachineSpec>& machines, const Options& options,
           const technique::Registry& registry) {
  // Fail fast on a name the registry does not know, before any threads run.
  for (const auto& name : techniques) (void)registry.info(name);

  const Stopwatch stopwatch;
  const Matrix matrix{circuits.size(), techniques.size(), machines.size()};
  Result sweep_result;
  sweep_result.cells.resize(matrix.cells());

  // Each circuit is transpiled once and shared by every (technique, machine)
  // cell with the same transpile options — the paper's Qiskit-preprocessing
  // methodology.
  util::Memo<std::string, circuit::Circuit> transpiled_memo;
  // Content fingerprints of effective input circuits: the placement memo's
  // and the persistent cache's keys are content-addressed, never
  // index-based, so they survive reordering of the sweep matrix. With a
  // cache, the first cell of a key asks the handle's transpile map before
  // it transpiles anything.
  util::Memo<std::string, cache::Digest128> fingerprint_memo;

  cache::CompilationCache* const persistent = options.cache.get();
  // Step 1 is shared through the graphine-placement pass: every cell's
  // pipeline borrows this memo (backed by the persistent tier).
  pipeline::PlacementMemo placement_memo(persistent);
  std::atomic<std::size_t> result_cache_hits{0};
  std::atomic<std::size_t> result_cache_misses{0};

  // The serve layer lends its persistent pool across requests; everyone
  // else gets a private pool for this run.
  std::optional<util::ThreadPool> owned_pool;
  util::ThreadPool* const pool = options.pool != nullptr
                                     ? options.pool
                                     : &owned_pool.emplace(options.n_threads);
  sweep_result.threads_used = pool->size();

  // The compile body proper, minus the per-cell bookkeeping that must also
  // run on its early returns (timing, the streaming hooks). A result hit
  // left undecoded for on_cached_cell lands in `scanned`.
  const auto compile_cell = [&](Cell& cell, std::size_t ci,
                                const CircuitSpec& spec,
                                const MachineSpec& machine,
                                std::optional<cache::ScannedCell>& scanned) {
      pipeline::CompileOptions opts = options.compile;
      // Technique-declared option tuning (e.g. graphine-mc4 switching the
      // placement annealer to batched multi-chain) applies before any key
      // is derived, so memo keys, cache fingerprints, and the pipeline all
      // see the same effective options.
      registry.apply_tuning(cell.technique, opts);

      // Shared transpilation (no-op when the caller's inputs are already in
      // the {U3, CZ} basis). Keyed on the cell's effective transpile options
      // so a technique that tunes them is honored, not silently served
      // another cell's circuit. Circuit names are preserved, so per-circuit
      // seed derivation is unchanged. The transpiled circuit is built only
      // when something needs it, at most once per cell: the cache's
      // transpile map usually knows its fingerprint already.
      const bool needs_transpile = !opts.assume_transpiled;
      const std::string input_key =
          std::to_string(ci) + "|" +
          (needs_transpile ? cache::fingerprint(opts.transpile).hex() : "raw");
      const circuit::Circuit* input =
          needs_transpile ? nullptr : &spec.circuit;
      bool transpile_shared = false;
      double transpile_seconds = 0.0;
      const auto effective_input = [&]() -> const circuit::Circuit& {
        if (input == nullptr) {
          bool transpiled_here = false;
          const Stopwatch transpile_watch;
          input = &transpiled_memo.get(
              input_key, [&, transpile_options = opts.transpile] {
                transpiled_here = true;
                return circuit::transpile(spec.circuit, transpile_options);
              });
          transpile_seconds = transpile_watch.seconds();
          transpile_shared = !transpiled_here;
        }
        return *input;
      };

      const cache::Digest128& input_fp = fingerprint_memo.get(input_key, [&] {
        if (!needs_transpile || persistent == nullptr) {
          return cache::fingerprint(effective_input());
        }
        const cache::Digest128 raw_key =
            cache::transpiled_input_key(spec.circuit, opts.transpile);
        if (auto known = persistent->find_transpiled(raw_key)) return *known;
        const cache::Digest128 fp = cache::fingerprint(effective_input());
        persistent->record_transpiled(raw_key, fp);
        return fp;
      });
      opts.assume_transpiled = true;

      const pipeline::Pipeline pl = registry.make_pipeline(cell.technique,
                                                           opts);

      // Whole-cell short-circuit: the result key covers the effective
      // circuit, technique (name + pass list), machine, every compile
      // option, and which derived outputs (success probability, shot
      // plans) ride along — an incremental sweep recompiles exactly the
      // cells whose fingerprints changed.
      cache::Digest128 cell_key;
      if (persistent != nullptr) {
        cell_key = cache::result_key(
            input_fp, cell.technique, pl.pass_names(), machine.config, opts,
            options.compute_success_probability ? &options.noise : nullptr,
            options.shots ? &*options.shots : nullptr);
        if (options.on_cached_cell) {
          scanned = persistent->get_result_bytes(cell_key);
          cell.from_cache = scanned.has_value();
        } else if (auto hit = persistent->get_result(cell_key)) {
          cell.result = std::move(hit->result);
          cell.success_probability = hit->success_probability;
          cell.shot_plans = std::move(hit->shot_plans);
          cell.from_cache = true;
          for (const auto& pass : pl.pass_names()) {
            cell.result.pass_timings.push_back({pass, 0.0, true});
          }
        }
        if (cell.from_cache) {
          result_cache_hits.fetch_add(1, std::memory_order_relaxed);
          return;
        }
        result_cache_misses.fetch_add(1, std::memory_order_relaxed);
      }

      cell.result = pl.run(effective_input(), machine.config, opts,
                           {&placement_memo, input_fp});
      if (transpile_seconds != 0.0 || transpile_shared) {
        attribute_stage_timing(cell.result, "transpile", transpile_seconds,
                               transpile_shared);
      }
      if (options.compute_success_probability) {
        if (opts.fidelity.model == noise::FidelityModel::kSimulated) {
          // Monte Carlo estimate via the discrete-event simulator, with the
          // sweep's noise channels. Single-threaded: the cell already runs
          // on a pool worker, and the shot streams are seed-derived, so the
          // estimate is identical however the shots are fanned out.
          sim::SimOptions sim_options;
          sim_options.shots = opts.fidelity.shots;
          sim_options.seed = util::derive_seed(opts.seed, input->name(),
                                               util::kSimSeedSalt);
          sim_options.channels = options.noise;
          sim_options.moving_decoherence_scale =
              opts.fidelity.moving_decoherence_scale;
          sim_options.n_threads = 1;
          cell.success_probability =
              sim::simulate(cell.result, machine.config, sim_options).mean();
        } else {
          cell.success_probability = noise::success_probability(
              cell.result, machine.config, options.noise);
        }
      }
      if (options.shots) {
        cell.shot_plans = shots::parallelization_sweep(
            cell.result, machine.config, *options.shots);
      }
      if (persistent != nullptr) {
        // Moved in and back out: the cache only encodes the cell.
        cache::CachedCell stored;
        stored.result = std::move(cell.result);
        stored.has_success_probability = options.compute_success_probability;
        stored.success_probability = cell.success_probability;
        stored.has_shot_plans = options.shots.has_value();
        stored.shot_plans = std::move(cell.shot_plans);
        persistent->put_result(cell_key, stored);
        cell.result = std::move(stored.result);
        cell.shot_plans = std::move(stored.shot_plans);
      }
  };

  const auto run_cell = [&](std::size_t flat) {
    const auto [ci, ti, mi] = matrix.index(flat);
    const CircuitSpec& spec = circuits[ci];
    const MachineSpec& machine = machines[mi];

    Cell& cell = sweep_result.cells[flat];
    cell.circuit = spec.name;
    cell.technique = techniques[ti];
    cell.machine = machine.name;
    cell.circuit_index = ci;
    cell.technique_index = ti;
    cell.machine_index = mi;

    if (options.cell_filter && !options.cell_filter(flat)) {
      cell.skipped = true;
      return;
    }
    if (options.cancel && options.cancel->load(std::memory_order_relaxed)) {
      cell.cancelled = true;
      return;
    }
    cell.origin = options.provenance;

    std::optional<cache::ScannedCell> scanned;
    const Stopwatch cell_watch;
    try {
      compile_cell(cell, ci, spec, machine, scanned);
    } catch (const std::exception& error) {
      cell.error = error.what();
    }
    cell.compile_seconds = cell_watch.seconds();
    if (scanned) {
      options.on_cached_cell(cell, *scanned);
    } else if (options.on_cell) {
      options.on_cell(cell);
    }
  };

  // The workers' cache puts reach memory at once and queue their disk
  // writes; this thread, idle otherwise, writes them while the pool
  // compiles, and releasing the guard writes what is left.
  std::optional<cache::Store::WriteBack> write_back;
  std::function<void()> flush;
  if (persistent != nullptr) {
    write_back.emplace(persistent->write_back());
    flush = [persistent] { persistent->flush(); };
  }
  pool->parallel_for(sweep_result.cells.size(), run_cell, flush);
  write_back.reset();
  for (const Cell& cell : sweep_result.cells) {
    if (cell.cancelled) {
      sweep_result.cancelled = true;
      break;
    }
  }
  sweep_result.transpile_cache_hits = transpiled_memo.hits();
  sweep_result.transpile_cache_misses = transpiled_memo.misses();
  sweep_result.placement_cache_hits = placement_memo.hits();
  sweep_result.placement_cache_misses = placement_memo.misses();
  sweep_result.placement_disk_hits = placement_memo.disk_hits();
  sweep_result.anneals = placement_memo.anneals();
  sweep_result.result_cache_hits = result_cache_hits.load();
  sweep_result.result_cache_misses = result_cache_misses.load();
  sweep_result.wall_seconds = stopwatch.seconds();
  return sweep_result;
}

}  // namespace parallax::sweep
