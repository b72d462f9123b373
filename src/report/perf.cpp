#include "report/perf.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "bench_circuits/registry.hpp"
#include "cache/cache.hpp"
#include "circuit/interaction_graph.hpp"
#include "circuit/transpile.hpp"
#include "hardware/config.hpp"
#include "noise/model.hpp"
#include "parallax/compiler.hpp"
#include "placement/graphine.hpp"
#include "placement/windowed.hpp"
#include "qasm/stream_parser.hpp"
#include "qasm/writer.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "shard/spec.hpp"
#include "sim/simulator.hpp"
#include "sweep/sweep.hpp"
#include "technique/registry.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace parallax::report {

namespace {

/// The largest table04 circuit — the cold-anneal cost ceiling the hot-path
/// work is gated on.
constexpr const char* kGateCircuit = "TFIM";

struct AnnealSample {
  double wall_seconds = 0.0;
  placement::PlacementStats stats;
  double objective = 0.0;
  double interaction_radius = 0.0;
};

/// Min-of-`repeats` cold anneal of `graph` under `popts` (wall noise is
/// one-sided, so the minimum is the stable estimator).
AnnealSample measure_anneal(const circuit::InteractionGraph& graph,
                            const placement::GraphineOptions& popts,
                            int repeats) {
  AnnealSample best;
  best.wall_seconds = 1e300;
  for (int r = 0; r < repeats; ++r) {
    placement::PlacementStats stats;
    const placement::Topology topology =
        placement::graphine_place(graph, popts, &stats);
    if (stats.anneal_seconds < best.wall_seconds) {
      best.wall_seconds = stats.anneal_seconds;
      best.stats = stats;
      best.interaction_radius = topology.interaction_radius;
      std::vector<double> coords(2 * topology.positions.size());
      for (std::size_t q = 0; q < topology.positions.size(); ++q) {
        coords[2 * q] = topology.positions[q].x;
        coords[2 * q + 1] = topology.positions[q].y;
      }
      // Scored with the legacy objective so all three modes are directly
      // comparable.
      best.objective =
          placement::placement_objective(coords, graph, popts);
    }
  }
  return best;
}

util::JsonValue anneal_json(const AnnealSample& sample) {
  auto node = util::JsonValue::object();
  node["wall_seconds"] = sample.wall_seconds;
  node["evaluations"] = sample.stats.evaluations;
  node["delta_evaluations"] = sample.stats.delta_evaluations;
  const double total = static_cast<double>(sample.stats.evaluations +
                                           sample.stats.delta_evaluations);
  node["evaluations_per_second"] =
      sample.wall_seconds > 0.0 ? total / sample.wall_seconds : 0.0;
  node["restarts"] = sample.stats.restarts;
  node["local_searches"] = sample.stats.local_searches;
  node["chains"] = sample.stats.chains;
  node["objective"] = sample.objective;
  node["interaction_radius"] = sample.interaction_radius;
  if (!sample.stats.portfolio_winner.empty()) {
    node["winner"] = sample.stats.portfolio_winner;
    auto entrants = util::JsonValue::array();
    for (const auto& entrant : sample.stats.entrants) {
      auto row = util::JsonValue::object();
      row["name"] = entrant.name;
      row["value"] = entrant.value;
      row["wall_seconds"] = entrant.wall_seconds;
      row["evaluations"] = entrant.evaluations;
      row["delta_evaluations"] = entrant.delta_evaluations;
      row["winner"] = entrant.winner;
      entrants.push_back(std::move(row));
    }
    node["entrants"] = std::move(entrants);
  }
  return node;
}

bool write_text(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

std::optional<std::string> read_text(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) return std::nullopt;
  return std::move(buffer).str();
}

placement::GraphineOptions technique_placement_options(
    const char* technique, std::uint64_t master_seed,
    const std::string& circuit_name) {
  pipeline::CompileOptions options;
  if (technique != nullptr) {
    technique::Registry::global().apply_tuning(technique, options);
  }
  placement::GraphineOptions popts = options.placement;
  popts.seed =
      util::derive_seed(master_seed, circuit_name, util::kPlacementSeedSalt);
  return popts;
}

}  // namespace

std::optional<double> scan_json_number(const std::string& text,
                                       const std::string& key) {
  const std::string needle = "\"" + key + "\"";
  const std::size_t at = text.find(needle);
  if (at == std::string::npos) return std::nullopt;
  std::size_t cursor = at + needle.size();
  while (cursor < text.size() &&
         (text[cursor] == ':' || text[cursor] == ' ' || text[cursor] == '\t')) {
    ++cursor;
  }
  const char* begin = text.c_str() + cursor;
  char* end = nullptr;
  const double value = std::strtod(begin, &end);
  if (end == begin) return std::nullopt;
  return value;
}

int run_perf_snapshot(const std::string& path, const PerfOptions& options,
                      std::FILE* log) {
  const auto& registry = technique::Registry::global();
  bench_circuits::GenOptions gen;
  gen.seed = options.seed;

  // --- Anneal A/B on the largest table04 circuit, cache-disabled ----------
  const circuit::Circuit raw =
      bench_circuits::make_benchmark(kGateCircuit, gen);
  const circuit::Circuit circuit = circuit::transpile(raw);
  const circuit::InteractionGraph graph(circuit);

  std::fprintf(log, "[perf] cold anneal A/B on %s (%d qubits)...\n",
               kGateCircuit, graph.n_qubits());
  const AnnealSample legacy = measure_anneal(
      graph,
      technique_placement_options(nullptr, options.seed, circuit.name()), 3);
  const AnnealSample fast = measure_anneal(
      graph,
      technique_placement_options("parallax-fast", options.seed,
                                  circuit.name()),
      3);
  const AnnealSample mc4 = measure_anneal(
      graph,
      technique_placement_options("parallax-mc4", options.seed,
                                  circuit.name()),
      2);
  const AnnealSample race = measure_anneal(
      graph,
      technique_placement_options("parallax-race", options.seed,
                                  circuit.name()),
      2);

  const double fast_speedup =
      fast.wall_seconds > 0.0 ? legacy.wall_seconds / fast.wall_seconds : 0.0;
  const double mc4_per_chain =
      mc4.wall_seconds / static_cast<double>(std::max(mc4.stats.chains, 1));
  std::fprintf(log,
               "[perf] legacy %.1fms | delta %.1fms (%.1fx) | mc4 %.1fms "
               "(%.1fms/chain, objective %.1f vs %.1f)\n",
               legacy.wall_seconds * 1e3, fast.wall_seconds * 1e3,
               fast_speedup, mc4.wall_seconds * 1e3, mc4_per_chain * 1e3,
               mc4.objective, legacy.objective);
  std::fprintf(log, "[perf] race %.1fms (winner %s, objective %.1f)\n",
               race.wall_seconds * 1e3,
               race.stats.portfolio_winner.empty()
                   ? "-"
                   : race.stats.portfolio_winner.c_str(),
               race.objective);

  // --- Streaming QASM parse throughput ------------------------------------
  // Writer-realistic source (full-precision angles, exactly what
  // qasm::write emits) through the pull parser with a counting visitor —
  // the import hot path. Min-of-3 wall, like the anneal A/B.
  double qasm_wall = 1e300;
  std::size_t qasm_bytes = 0;
  std::uint64_t qasm_gates = 0;
  {
    util::Rng qrng(options.seed ^ 0x51A3u);
    circuit::Circuit synthetic(256, "perf_parse");
    constexpr int kParseGates = 200000;
    for (int g = 0; g < kParseGates; ++g) {
      const auto a = static_cast<std::int32_t>(qrng.next_below(256));
      auto b = static_cast<std::int32_t>(qrng.next_below(256));
      if (b == a) b = (a + 1) % 256;
      if (g % 2 == 0) {
        synthetic.u3(a, qrng.uniform(0.0, 6.28), qrng.uniform(-3.14, 3.14),
                     qrng.uniform(0.0, 6.28));
      } else {
        synthetic.cz(a, b);
      }
    }
    const std::string source = qasm::to_qasm(synthetic);
    qasm_bytes = source.size();
    class CountOnly final : public qasm::GateStreamVisitor {
     public:
      void on_gate(const circuit::Gate&) override {}
    };
    for (int r = 0; r < 3; ++r) {
      qasm::ViewStreamBuf buf(source);
      std::istream in(&buf);
      qasm::StreamParser parser(in, "perf_parse.qasm");
      CountOnly visitor;
      const util::Stopwatch parse_watch;
      const qasm::StreamTotals totals = parser.run(visitor);
      qasm_wall = std::min(qasm_wall, parse_watch.seconds());
      qasm_gates = totals.n_gates;
    }
    std::fprintf(log, "[perf] qasm parse: %.1f MB in %.1fms (%.0f MB/s)\n",
                 static_cast<double>(qasm_bytes) / 1e6, qasm_wall * 1e3,
                 qasm_wall > 0.0
                     ? static_cast<double>(qasm_bytes) / 1e6 / qasm_wall
                     : 0.0);
  }

  // --- Windowed placement on the gate circuit ------------------------------
  // The hierarchical path external million-gate corpora compile through:
  // partition, per-window anneals, tile stitch. Min-of-2 wall.
  double windowed_wall = 1e300;
  placement::PlacementStats windowed_stats;
  double windowed_radius = 0.0;
  {
    placement::GraphineOptions wopts =
        technique_placement_options("parallax-fast", options.seed,
                                    circuit.name());
    wopts.max_window_qubits = std::max(graph.n_qubits() / 4, 8);
    for (int r = 0; r < 2; ++r) {
      placement::PlacementStats stats;
      const util::Stopwatch windowed_watch;
      const placement::Topology topology =
          placement::windowed_place(graph, wopts, &stats);
      const double wall = windowed_watch.seconds();
      if (wall < windowed_wall) {
        windowed_wall = wall;
        windowed_stats = stats;
        windowed_radius = topology.interaction_radius;
      }
    }
    std::fprintf(log,
                 "[perf] windowed placement (cap %d): %d windows in %.1fms "
                 "(vs %.1fms single anneal)\n",
                 wopts.max_window_qubits, windowed_stats.windows,
                 windowed_wall * 1e3, fast.wall_seconds * 1e3);
  }

  // --- Sweep throughput, cold then warm, through a scratch cache ----------
  const auto config = hardware::HardwareConfig::quera_aquila_256();
  const std::vector<std::string> acronyms = {"WST", "QAOA", "TFIM", "QV"};
  const std::vector<std::string> techniques = {"parallax", "parallax-mc4"};
  const auto circuits = sweep::benchmark_circuits(acronyms, gen);
  const std::filesystem::path cache_dir =
      std::filesystem::temp_directory_path() /
      ("parallax-perf-" + std::to_string(static_cast<unsigned long long>(
                              options.seed ^ 0x9e3779b97f4a7c15ULL)));
  std::error_code ec;
  std::filesystem::remove_all(cache_dir, ec);

  sweep::Options sweep_options;
  sweep_options.compile.seed = options.seed;
  sweep_options.n_threads = options.threads;
  sweep_options.cache =
      cache::CompilationCache::open({.directory = cache_dir.string()});

  std::fprintf(log, "[perf] sweep %zux%zu cold...\n", circuits.size(),
               techniques.size());
  const sweep::Result cold = sweep::run(circuits, techniques,
                                        {{config.name, config}}, sweep_options,
                                        registry);
  std::fprintf(log, "[perf] sweep warm replay...\n");
  const sweep::Result warm = sweep::run(circuits, techniques,
                                        {{config.name, config}}, sweep_options,
                                        registry);
  const double warm_hit_rate =
      warm.cells.empty() ? 0.0
                         : static_cast<double>(warm.result_cache_hits) /
                               static_cast<double>(warm.cells.size());

  // --- Serve session STATS over the now-warm cache ------------------------
  serve::SessionStats serve_stats;
  {
    // A fresh cache handle on the same directory, so the session's hit/miss
    // counters cover the serve replay alone (the disk tier carries the
    // warmth, not the handle).
    serve::SweepService service(
        {.n_threads = options.threads,
         .cache = cache::CompilationCache::open(
             {.directory = cache_dir.string()})});
    shard::SweepSpec spec;
    spec.circuits = circuits;
    spec.techniques = techniques;
    spec.machines = {{config.name, config}};
    spec.options.compile.seed = options.seed;
    service.submit(spec)->wait();
    serve_stats = service.session_stats();
  }

  // --- Multi-client farm throughput over the warm cache -------------------
  // Three concurrent clients against one poll()-driven session; every
  // request replays from the disk-warm cache, so the number is the farm
  // front-end's own overhead (framing, fair-share dispatch, streaming),
  // not compile time.
  constexpr std::size_t kFarmClients = 3;
  serve::SessionStats farm_stats;
  double farm_wall = 0.0;
  std::size_t farm_cells = 0;
  {
    const std::string socket_path =
        (std::filesystem::temp_directory_path() /
         ("parallax-perf-farm-" +
          std::to_string(static_cast<unsigned long long>(
              options.seed ^ 0xc2b2ae3d27d4eb4fULL)) +
          ".sock"))
            .string();
    serve::SweepService service(
        {.n_threads = options.threads,
         .cache = cache::CompilationCache::open(
             {.directory = cache_dir.string()})});
    serve::ServerOptions server_options;
    std::thread server([&] {
      (void)serve::serve_unix_socket(socket_path, service, server_options);
    });
    for (int i = 0; i < 1000 && !std::filesystem::exists(socket_path); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    shard::SweepSpec spec;
    spec.circuits = circuits;
    spec.techniques = techniques;
    spec.machines = {{config.name, config}};
    spec.options.compile.seed = options.seed;
    std::fprintf(log, "[perf] serve farm: %zu concurrent clients...\n",
                 kFarmClients);
    std::atomic<std::size_t> delivered{0};
    const util::Stopwatch farm_watch;
    std::vector<std::thread> clients;
    clients.reserve(kFarmClients);
    for (std::size_t c = 0; c < kFarmClients; ++c) {
      clients.emplace_back([&] {
        serve::Client client(socket_path);
        const serve::ClientOutcome outcome = client.run(spec);
        delivered.fetch_add(
            static_cast<std::size_t>(outcome.summary.executed_cells),
            std::memory_order_relaxed);
        client.quit();
      });
    }
    for (auto& thread : clients) thread.join();
    farm_wall = farm_watch.seconds();
    farm_cells = delivered.load(std::memory_order_relaxed);
    serve::Client(socket_path).stop();  // graceful drain unlinks the socket
    server.join();
    farm_stats = service.session_stats();
  }
  std::filesystem::remove_all(cache_dir, ec);

  // --- parse_request_line micro-benchmark ---------------------------------
  // The SUBMIT fast path: one multi-megabyte hex spec line tokenized in
  // place (no line copy) and decoded. Min-of-5 wall, like the anneal A/B.
  double parse_wall = 1e300;
  std::size_t parse_line_bytes = 0;
  {
    shard::SweepSpec spec;
    spec.circuits = circuits;
    spec.techniques = techniques;
    spec.machines = {{config.name, config}};
    spec.options.compile.seed = options.seed;
    std::string line = serve::submit_line(7, spec);
    line.pop_back();  // parse_request_line takes the line sans newline
    parse_line_bytes = line.size();
    for (int r = 0; r < 5; ++r) {
      const util::Stopwatch parse_watch;
      const serve::RequestLine parsed = serve::parse_request_line(line);
      const double wall = parse_watch.seconds();
      if (parsed.spec.total_cells() != spec.total_cells()) {
        std::fprintf(log, "[perf] FAILED: parse round-trip mismatch\n");
        return 1;
      }
      parse_wall = std::min(parse_wall, wall);
    }
    std::fprintf(log, "[perf] parse_request_line: %.2f MB line in %.2fms\n",
                 static_cast<double>(parse_line_bytes) / 1e6,
                 parse_wall * 1e3);
  }

  // --- Simulator shot throughput on WST ------------------------------------
  constexpr const char* kSimCircuit = "WST";
  constexpr std::int64_t kSimShots = 4096;
  std::fprintf(log, "[perf] simulating %lld shots of %s/parallax...\n",
               static_cast<long long>(kSimShots), kSimCircuit);
  pipeline::CompileOptions sim_compile;
  sim_compile.seed = options.seed;
  sim_compile.scheduler.record_positions = true;
  const compiler::CompileResult sim_schedule = compiler::compile(
      bench_circuits::make_benchmark(kSimCircuit, gen), config, sim_compile);
  sim::SimOptions sim_options;
  sim_options.shots = kSimShots;
  sim_options.seed =
      util::derive_seed(options.seed, kSimCircuit, util::kSimSeedSalt);
  sim_options.n_threads = options.threads;
  const util::Stopwatch sim_watch;
  const sim::SurvivalEstimate sim_estimate =
      sim::simulate(sim_schedule, config, sim_options);
  const double sim_wall = sim_watch.seconds();
  const double sim_model = noise::success_probability(sim_schedule, config);
  std::fprintf(log,
               "[perf] sim %.3fs (%.0f shots/s), survival %.4f vs model "
               "%.4f\n",
               sim_wall,
               sim_wall > 0.0 ? static_cast<double>(kSimShots) / sim_wall
                              : 0.0,
               sim_estimate.mean(), sim_model);

  // --- Snapshot ------------------------------------------------------------
  auto root = util::JsonValue::object();
  root["schema"] = "parallax-perf-snapshot-v1";
  // The CI-gated headline: single-chain delta-cost anneal wall on the gate
  // circuit. Deliberately parallelism-independent (mc4 wall depends on core
  // count; this does not).
  root["gate_anneal_wall_seconds"] = fast.wall_seconds;
  root["gate_circuit"] = kGateCircuit;
  root["gate_qubits"] = graph.n_qubits();
  root["seed"] = static_cast<double>(options.seed);

  auto anneal = util::JsonValue::object();
  anneal["legacy"] = anneal_json(legacy);
  anneal["delta_single_chain"] = anneal_json(fast);
  anneal["delta_mc4"] = anneal_json(mc4);
  anneal["race"] = anneal_json(race);
  anneal["delta_speedup_vs_legacy"] = fast_speedup;
  anneal["mc4_per_chain_wall_seconds"] = mc4_per_chain;
  anneal["mc4_per_chain_speedup_vs_legacy"] =
      mc4_per_chain > 0.0 ? legacy.wall_seconds / mc4_per_chain : 0.0;
  root["anneal"] = std::move(anneal);

  auto qasm_node = util::JsonValue::object();
  qasm_node["source_bytes"] = qasm_bytes;
  qasm_node["gates"] = qasm_gates;
  qasm_node["wall_seconds"] = qasm_wall;
  qasm_node["mb_per_second"] =
      qasm_wall > 0.0 ? static_cast<double>(qasm_bytes) / 1e6 / qasm_wall
                      : 0.0;
  qasm_node["gates_per_second"] =
      qasm_wall > 0.0 ? static_cast<double>(qasm_gates) / qasm_wall : 0.0;
  root["qasm_parse"] = std::move(qasm_node);

  auto windowed_node = util::JsonValue::object();
  windowed_node["windows"] = windowed_stats.windows;
  windowed_node["windows_annealed"] = windowed_stats.windows_annealed;
  windowed_node["wall_seconds"] = windowed_wall;
  windowed_node["anneal_seconds"] = windowed_stats.anneal_seconds;
  windowed_node["interaction_radius"] = windowed_radius;
  windowed_node["single_anneal_wall_seconds"] = fast.wall_seconds;
  root["windowed_placement"] = std::move(windowed_node);

  auto sweep_node = util::JsonValue::object();
  sweep_node["cells"] = cold.cells.size();
  auto cold_node = util::JsonValue::object();
  cold_node["wall_seconds"] = cold.wall_seconds;
  cold_node["cells_per_second"] =
      cold.wall_seconds > 0.0
          ? static_cast<double>(cold.cells.size()) / cold.wall_seconds
          : 0.0;
  cold_node["anneals"] = cold.anneals;
  cold_node["result_cache_hits"] = cold.result_cache_hits;
  sweep_node["cold"] = std::move(cold_node);
  auto warm_node = util::JsonValue::object();
  warm_node["wall_seconds"] = warm.wall_seconds;
  warm_node["cells_per_second"] =
      warm.wall_seconds > 0.0
          ? static_cast<double>(warm.cells.size()) / warm.wall_seconds
          : 0.0;
  warm_node["anneals"] = warm.anneals;
  warm_node["result_cache_hits"] = warm.result_cache_hits;
  warm_node["result_cache_misses"] = warm.result_cache_misses;
  warm_node["hit_rate"] = warm_hit_rate;
  sweep_node["warm"] = std::move(warm_node);
  root["sweep"] = std::move(sweep_node);

  auto serve_node = util::JsonValue::object();
  serve_node["requests"] = serve_stats.requests;
  serve_node["cells_executed"] = serve_stats.cells_executed;
  serve_node["cells_failed"] = serve_stats.cells_failed;
  serve_node["result_cache_hits"] = serve_stats.result_cache_hits;
  serve_node["result_cache_misses"] = serve_stats.result_cache_misses;
  serve_node["placement_cache_hits"] = serve_stats.placement_cache_hits;
  serve_node["placement_cache_misses"] = serve_stats.placement_cache_misses;
  serve_node["anneals"] = serve_stats.anneals;
  serve_node["threads"] = serve_stats.threads;
  serve_node["cache_enabled"] = serve_stats.cache_enabled;
  root["serve"] = std::move(serve_node);

  auto farm_node = util::JsonValue::object();
  farm_node["clients"] = kFarmClients;
  farm_node["requests"] = farm_stats.requests;
  farm_node["cells_delivered"] = farm_cells;
  farm_node["wall_seconds"] = farm_wall;
  farm_node["cells_per_second"] =
      farm_wall > 0.0 ? static_cast<double>(farm_cells) / farm_wall : 0.0;
  farm_node["anneals"] = farm_stats.anneals;
  farm_node["client_rows"] = farm_stats.clients.size();
  root["serve_farm"] = std::move(farm_node);

  auto parse_node = util::JsonValue::object();
  parse_node["line_bytes"] = parse_line_bytes;
  parse_node["wall_seconds"] = parse_wall;
  parse_node["mb_per_second"] =
      parse_wall > 0.0
          ? static_cast<double>(parse_line_bytes) / 1e6 / parse_wall
          : 0.0;
  root["parse_request_line"] = std::move(parse_node);

  auto sim_node = util::JsonValue::object();
  sim_node["circuit"] = kSimCircuit;
  sim_node["shots"] = sim_estimate.shots;
  sim_node["wall_seconds"] = sim_wall;
  sim_node["shots_per_second"] =
      sim_wall > 0.0 ? static_cast<double>(sim_estimate.shots) / sim_wall
                     : 0.0;
  sim_node["survival_mean"] = sim_estimate.mean();
  sim_node["model_success"] = sim_model;
  sim_node["outcome_digest"] = sim_estimate.outcome_digest.hex();
  root["sim"] = std::move(sim_node);

  if (!write_text(path, root.dump(2) + "\n")) {
    std::fprintf(log, "[perf] FAILED to write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(log, "[perf] snapshot written to %s\n", path.c_str());

  // --- Baseline gate -------------------------------------------------------
  if (!options.baseline_path.empty()) {
    const auto baseline = read_text(options.baseline_path);
    if (!baseline) {
      std::fprintf(log, "[perf] FAILED to read baseline %s\n",
                   options.baseline_path.c_str());
      return 1;
    }
    const auto gate = scan_json_number(*baseline, "gate_anneal_wall_seconds");
    if (!gate) {
      std::fprintf(log,
                   "[perf] baseline %s has no gate_anneal_wall_seconds\n",
                   options.baseline_path.c_str());
      return 1;
    }
    const double limit = *gate * (1.0 + options.tolerance);
    if (fast.wall_seconds > limit) {
      std::fprintf(log,
                   "[perf] REGRESSION: anneal wall %.1fms exceeds baseline "
                   "%.1fms by more than %.0f%% (limit %.1fms)\n",
                   fast.wall_seconds * 1e3, *gate * 1e3,
                   options.tolerance * 100.0, limit * 1e3);
      return 1;
    }
    std::fprintf(log,
                 "[perf] gate ok: anneal wall %.1fms vs baseline %.1fms "
                 "(limit +%.0f%%)\n",
                 fast.wall_seconds * 1e3, *gate * 1e3,
                 options.tolerance * 100.0);
  }
  return 0;
}

}  // namespace parallax::report
