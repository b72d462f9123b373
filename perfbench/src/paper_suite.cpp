// paper-suite: the paper's own evaluation, run the way users run it. Each
// round takes one input instance's 18 Table III circuits (reduced-depth VQE)
// as QASM text — the paper compiles QASMBench files — parses them with
// qasm::parse, and compiles them with {parallax, parallax-fast, eldi,
// graphine} x {quera256, atom1225}: one cold sweep::run of 144 cells on one
// worker thread into an empty persistent cache. Placement and schedule share
// the wall; cache writes and fidelity are most of the rest.
#include <filesystem>

#include "bench.hpp"
#include "bench_circuits/registry.hpp"
#include "cache/cache.hpp"
#include "placement/graphine.hpp"
#include "qasm/parser.hpp"
#include "qasm/writer.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace parallax;

namespace {

/// The Table III acronyms, or three small ones at smoke scale.
std::vector<std::string> suite_acronyms(bool tiny) {
  if (tiny) return {"ADD", "HLF", "QAOA"};
  std::vector<std::string> acronyms;
  for (const auto& info : bench_circuits::all_benchmarks()) {
    acronyms.push_back(info.acronym);
  }
  return acronyms;
}

/// A round's wall on the machine the repetition count was calibrated on.
constexpr double kNominalRoundSeconds = 1.4;

/// One input instance as it arrives: every circuit as (name, QASM text).
struct Instance {
  std::vector<std::pair<std::string, std::string>> qasm;
  std::uint64_t compile_seed = 0;
};

}  // namespace

std::vector<std::string> paper_suite_techniques() {
  return {"parallax", "parallax-fast", "eldi", "graphine"};
}

std::vector<sweep::CircuitSpec> paper_suite_circuits(const RunConfig& run,
                                                     std::size_t instance) {
  bench_circuits::GenOptions gen;
  gen.seed = gen_seed(run.seed, instance);
  return sweep::benchmark_circuits(suite_acronyms(run.tiny), gen);
}

Outcome run_paper_suite(const RunConfig& run) {
  Outcome out;
  const std::vector<std::string> techniques = paper_suite_techniques();
  const std::vector<sweep::MachineSpec> machines = paper_machines();

  // Set-up takes some 40 ms an instance, so short that one slow moment
  // moves it by a third; each instance is set up three times and setup_s is
  // the median of all of them.
  std::vector<Instance> instances(kInstances);
  for (int repeat = 0; repeat < 3; ++repeat) {
    for (std::size_t i = 0; i < kInstances; ++i) {
      const Nanos start = now_ns();
      Instance instance{{}, compile_seed(run.seed, i)};
      for (const sweep::CircuitSpec& spec : paper_suite_circuits(run, i)) {
        instance.qasm.emplace_back(spec.name, qasm::to_qasm(spec.circuit));
      }
      instances[i] = std::move(instance);
      out.setup_seconds.push_back(seconds_between(start, now_ns()));
    }
  }

  const technique::Registry& plain = technique::Registry::global();
  const auto tracer = run.trace ? std::make_shared<Tracer>() : nullptr;
  const technique::Registry traced_registry =
      run.trace ? tracing_registry(plain, tracer) : technique::Registry{};

  // Round r compiles instance r mod kInstances (traced runs: (r / 2) mod
  // kInstances, untraced first, then traced). A round that revisits an
  // instance must reproduce its first round's bytes, traced or not. Every
  // round gets a fresh cache directory, so every round is cold.
  std::vector<std::vector<util::Digest128>> first_digests(kInstances);
  std::vector<Envelope> envelopes(kInstances);
  std::size_t cells_per_round = 0;
  const std::size_t rounds =
      kInstances * repetitions(run, kInstances * kNominalRoundSeconds, 2);
  const Nanos cap = phase_cap(run, now_ns());
  for (std::size_t round = 0; round < rounds; ++round) {
    if (now_ns() > cap) {
      fail_incomplete(out.checks, round, rounds);
      break;
    }
    const bool traced = traced_round(run, round);
    const std::size_t index = (run.trace ? round / 2 : round) % kInstances;
    const Instance& instance = instances[index];

    sweep::Options options;
    options.n_threads = 1;
    options.compile.seed = instance.compile_seed;
    const std::filesystem::path dir =
        run.workdir / ("cache-" + std::to_string(round));
    options.cache = cache::CompilationCache::open({.directory = dir.string()});
    const std::uint64_t evaluations = placement::objective_evaluations();
    const std::uint64_t delta_evaluations = placement::delta_evaluations();

    const Nanos start = now_ns();
    std::vector<sweep::CircuitSpec> circuits;
    std::vector<double> pieces;  // per circuit parse, per cell, glue
    std::size_t qasm_bytes = 0;
    for (const auto& [name, text] : instance.qasm) {
      const Nanos parse_start = now_ns();
      circuits.push_back({name, qasm::parse(text, name).circuit});
      pieces.push_back(seconds_between(parse_start, now_ns()));
      qasm_bytes += text.size();
    }
    const double parse_seconds = seconds_between(start, now_ns());
    SweepRound sweep = sweep_round(circuits, techniques, machines, options,
                                   traced ? traced_registry : plain,
                                   traced ? tracer : nullptr);
    const double wall = seconds_between(start, now_ns());

    const bool first_visit = first_digests[index].empty();
    check_cells(sweep.result, machines, first_visit, out.checks);
    if (first_visit) {
      for (const sweep::Cell& cell : sweep.result.cells) {
        first_digests[index].push_back(cell_digest(cell));
      }
      out.quality.add_instance(sweep.result);
    } else {
      check_repeat(first_digests[index], sweep.result, out.checks);
    }

    if (!traced) {
      out.round_seconds.push_back(wall);
      for (const sweep::Cell& cell : sweep.result.cells) {
        pieces.push_back(cell.compile_seconds);
      }
      pieces.push_back(wall - sum(pieces));
      envelopes[index].observe(pieces);
      cells_per_round = sweep.result.cells.size();
    } else {
      std::map<std::string, double> layers;
      add_sweep_layers(sweep, layers);
      add_sweep_counters(sweep.result, layers);
      layers["placement.evaluations"] = static_cast<double>(
          placement::objective_evaluations() - evaluations);
      layers["placement.delta_evaluations"] = static_cast<double>(
          placement::delta_evaluations() - delta_evaluations);
      layers["qasm.parse_s"] = parse_seconds;
      layers["qasm.mb_per_s"] =
          static_cast<double>(qasm_bytes) / 1e6 / parse_seconds;
      // Top-level spans of the round: the parse and the sweep.
      layers["trace.unattributed_s"] = wall - parse_seconds - sweep.seconds();
      add_cache_layers(options.cache->stats(), layers);
      const auto keys =
          result_keys(circuits, techniques, machines, options, plain);
      const Nanos replay = now_ns();
      std::size_t hits = 0;
      for (const cache::Digest128& key : keys) {
        hits += options.cache->get_result(key).has_value() ? 1 : 0;
      }
      layers["cache.get_result_s"] = seconds_between(replay, now_ns());
      out.checks.expect(hits == keys.size(),
                        "get_result replay missed " +
                            std::to_string(keys.size() - hits) + " of " +
                            std::to_string(keys.size()) + " stored cells");
      replay_cells(sweep.result, machines, options.noise, layers, out.checks);
      out.traced_layers.push_back(std::move(layers));
      out.traced_round_seconds.push_back(wall);
    }
    options.cache.reset();
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
  }
  // A request is one instance's job: the batch a user submits.
  for (const Envelope& envelope : envelopes) {
    if (!envelope.pieces().empty()) {
      out.request_seconds.push_back(envelope.total());
    }
  }
  out.wall_seconds = mean(out.request_seconds);
  out.cells_per_second =
      static_cast<double>(cells_per_round) / out.wall_seconds;
  out.meta.emplace_back("sweep_threads", "1");
  return out;
}

}  // namespace perfbench
