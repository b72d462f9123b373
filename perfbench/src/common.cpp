#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <mutex>
#include <utility>

#include "bench.hpp"
#include "cache/cache.hpp"
#include "cache/serialize.hpp"
#include "circuit/transpile.hpp"
#include "noise/model.hpp"
#include "parallax/validate.hpp"
#include "shard/shard.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace parallax;

void MetricSet::set(const std::string& name, double value,
                    const std::string& unit) {
  for (Metric& metric : items_) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  items_.push_back({name, value, unit});
}

const Metric* MetricSet::find(std::string_view name) const {
  for (const Metric& metric : items_) {
    if (metric.name == name) return &metric;
  }
  return nullptr;
}

void Checks::fail(const std::string& what) {
  ++failed_;
  if (messages_.size() < 20) messages_.push_back(what);
}

void Checks::merge(const Checks& other) {
  attempted_ += other.attempted_;
  failed_ += other.failed_;
  for (const std::string& message : other.messages_) {
    if (messages_.size() < 20) messages_.push_back(message);
  }
}

void Quality::add(const compiler::CompileResult& result,
                  double success_probability) {
  effective_cz += static_cast<double>(result.stats.effective_cz());
  trap_changes += static_cast<double>(result.stats.trap_changes);
  runtime_us += result.runtime_us;
  log_success_sum += std::log(success_probability);
  ++results;
}

void Quality::add_instance(const sweep::Result& result) {
  for (const sweep::Cell& cell : result.cells) {
    if (cell.ok() && parallax_family(cell.technique)) {
      add(cell.result, cell.success_probability);
    }
  }
  ++instances;
}

double Quality::per_instance(double total) const {
  return instances == 0 ? 0.0 : total / static_cast<double>(instances);
}

double Quality::success_geomean() const {
  return results == 0
             ? 0.0
             : std::exp(log_success_sum / static_cast<double>(results));
}

void Envelope::observe(const std::vector<double>& pieces) {
  if (best_.empty()) {
    best_ = pieces;
    return;
  }
  for (std::size_t i = 0; i < best_.size() && i < pieces.size(); ++i) {
    best_[i] = std::min(best_[i], pieces[i]);
  }
}

double Envelope::total() const {
  double total = 0.0;
  for (const double piece : best_) total += piece;
  return total;
}

std::size_t repetitions(const RunConfig& run, double nominal_seconds,
                        std::size_t minimum) {
  const double count = std::floor(run.seconds / nominal_seconds + 0.5);
  return std::max(minimum, static_cast<std::size_t>(std::max(count, 0.0)));
}

Nanos phase_cap(const RunConfig& run, Nanos phase_start) {
  // Four times the nominal phase, and never so long that set-up plus the
  // phase could pass the 180 s a run is allowed.
  const double cap = std::min(4.0 * run.seconds, 120.0);
  return phase_start + static_cast<Nanos>(cap * 1e9);
}

void fail_incomplete(Checks& checks, std::size_t done, std::size_t planned) {
  checks.attempt();
  checks.fail("measured phase passed its time cap after " +
              std::to_string(done) + " of " + std::to_string(planned) +
              " repetitions");
}

bool parallax_family(std::string_view technique) {
  return technique.substr(0, 8) == "parallax";
}

std::uint64_t gen_seed(std::uint64_t workload_seed, std::size_t instance) {
  return util::derive_seed(workload_seed, "perfbench.gen", 2 * instance + 1);
}

std::uint64_t compile_seed(std::uint64_t workload_seed, std::size_t instance) {
  return util::derive_seed(workload_seed, "perfbench.compile", 2 * instance + 2);
}

std::vector<sweep::MachineSpec> paper_machines() {
  return {{"quera256", hardware::HardwareConfig::quera_aquila_256()},
          {"atom1225", hardware::HardwareConfig::atom_computing_1225()}};
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

util::Digest128 canonical_digest(const sweep::Result& result) {
  const std::string bytes = shard::canonical_bytes(result);
  return util::hash128(bytes.data(), bytes.size());
}

util::Digest128 cell_digest(const sweep::Cell& cell) {
  sweep::Result single;
  single.cells.push_back(cell);
  return canonical_digest(single);
}

void check_cells(const sweep::Result& result,
                 const std::vector<sweep::MachineSpec>& machines,
                 bool validate, Checks& checks) {
  for (const sweep::Cell& cell : result.cells) {
    checks.attempt();
    const std::string label =
        cell_label(cell.circuit, cell.technique, cell.machine);
    if (!checks.expect(cell.ok(), label + ": " + cell.error)) continue;
    if (!validate || !parallax_family(cell.technique)) continue;
    const compiler::ValidationReport report = compiler::validate_schedule(
        cell.result, machines.at(cell.machine_index).config, true);
    checks.expect(report.ok, label + ": validate_schedule: " +
                                 (report.violations.empty()
                                      ? std::string("failed")
                                      : report.violations.front()));
  }
}

void check_repeat(const std::vector<util::Digest128>& reference,
                  const sweep::Result& result, Checks& checks) {
  if (reference.size() != result.cells.size()) {
    checks.fail("round produced " + std::to_string(result.cells.size()) +
                " cells, reference has " + std::to_string(reference.size()));
    return;
  }
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const sweep::Cell& cell = result.cells[i];
    checks.expect(cell_digest(cell) == reference[i],
                  cell_label(cell.circuit, cell.technique, cell.machine) +
                      ": canonical bytes differ from the first round");
  }
}

SweepRound sweep_round(const std::vector<sweep::CircuitSpec>& circuits,
                       const std::vector<std::string>& techniques,
                       const std::vector<sweep::MachineSpec>& machines,
                       sweep::Options options,
                       const technique::Registry& registry,
                       const std::shared_ptr<Tracer>& tracer) {
  struct CellEnd {
    std::string label;
    Nanos end = 0;
    double seconds = 0.0;
    std::vector<compiler::PassTiming> timings;
  };
  std::mutex mutex;
  std::vector<CellEnd> ends;
  if (tracer != nullptr) {
    options.on_cell = [&](const sweep::Cell& cell) {
      // Pass spans know the machine by its config's name, not the label
      // the sweep gives it.
      CellEnd end{cell_label(cell.circuit, cell.technique,
                             machines.at(cell.machine_index).config.name),
                  now_ns(), cell.compile_seconds, cell.result.pass_timings};
      const std::lock_guard lock(mutex);
      ends.push_back(std::move(end));
    };
  }
  SweepRound round;
  round.start = now_ns();
  round.result = sweep::run(circuits, techniques, machines, options, registry);
  round.end = now_ns();
  if (tracer == nullptr) return round;

  std::vector<Span> passes = tracer->take();
  std::vector<Span>& spans = round.spans;
  spans.push_back({"sweep.run", round.start, round.end, "", -1});
  std::map<std::string, int> cell_index;
  for (const CellEnd& end : ends) {
    const auto start =
        end.end - static_cast<Nanos>(std::llround(end.seconds * 1e9));
    cell_index[end.label] = static_cast<int>(spans.size());
    spans.push_back({"cell", std::max(start, round.start), end.end, end.label,
                     0});
  }
  std::map<std::string, Nanos> first_pass;
  for (Span& pass : passes) {
    const auto it = cell_index.find(pass.cell);
    if (it != cell_index.end()) pass.parent = it->second;
    auto [at, inserted] = first_pass.emplace(pass.cell, pass.start);
    if (!inserted) at->second = std::min(at->second, pass.start);
    spans.push_back(std::move(pass));
  }
  // Driver-hoisted stages, laid back to back ahead of the cell's first pass
  // (their order inside the cell; only their durations enter any metric).
  for (const CellEnd& end : ends) {
    const auto pass_it = first_pass.find(end.label);
    if (pass_it == first_pass.end()) continue;  // a result-cache hit
    const int parent = cell_index.at(end.label);
    Nanos cursor = pass_it->second;
    for (auto it = end.timings.rbegin(); it != end.timings.rend(); ++it) {
      if (it->cached ||
          (it->pass != "graphine-placement" && it->pass != "transpile")) {
        continue;
      }
      const Nanos start =
          cursor - static_cast<Nanos>(std::llround(it->seconds * 1e9));
      spans.push_back({pass_metric(it->pass),
                       std::max(start, spans[static_cast<std::size_t>(parent)]
                                           .start),
                       cursor, end.label, parent});
      cursor = spans.back().start;
    }
  }
  return round;
}

void add_sweep_layers(const SweepRound& round,
                      std::map<std::string, double>& layers) {
  const std::vector<double> self = self_seconds(round.spans);
  for (std::size_t i = 0; i < round.spans.size(); ++i) {
    const Span& span = round.spans[i];
    if (span.name == "sweep.run" || span.name == "cell") {
      layers["sweep.overhead_s"] += self[i];
    } else {
      layers[span.name] += span.seconds();
    }
  }
}

void add_sweep_counters(const sweep::Result& result,
                        std::map<std::string, double>& layers) {
  layers["placement.anneals"] += static_cast<double>(result.anneals);
  for (const sweep::Cell& cell : result.cells) {
    if (!cell.ok() || !parallax_family(cell.technique)) continue;
    layers["parallax.layers"] += static_cast<double>(cell.result.stats.layers);
    layers["parallax.aod_moves"] +=
        static_cast<double>(cell.result.stats.aod_moves);
  }
}

void replay_cells(const sweep::Result& result,
                  const std::vector<sweep::MachineSpec>& machines,
                  const noise::NoiseOptions& noise,
                  std::map<std::string, double>& layers, Checks& checks) {
  double noise_seconds = 0.0;
  double codec_seconds = 0.0;
  for (const sweep::Cell& cell : result.cells) {
    if (!cell.ok()) continue;
    const hardware::HardwareConfig& config =
        machines.at(cell.machine_index).config;
    Nanos start = now_ns();
    const double p = noise::success_probability(cell.result, config, noise);
    noise_seconds += seconds_between(start, now_ns());
    checks.expect(p == cell.success_probability,
                  cell_label(cell.circuit, cell.technique, cell.machine) +
                      ": replayed success probability differs");

    start = now_ns();
    cache::Writer writer;
    shard::encode_cell(writer, cell);
    const std::string bytes = writer.take();
    cache::Reader reader(bytes);
    const sweep::Cell decoded = shard::decode_cell(reader);
    codec_seconds += seconds_between(start, now_ns());
    checks.expect(decoded.circuit == cell.circuit,
                  "shard cell codec round trip lost the circuit label");
  }
  layers["noise.success_probability_s"] += noise_seconds;
  layers["shard.codec_s"] += codec_seconds;
}

std::vector<cache::Digest128> result_keys(
    const std::vector<sweep::CircuitSpec>& circuits,
    const std::vector<std::string>& techniques,
    const std::vector<sweep::MachineSpec>& machines,
    const sweep::Options& options, const technique::Registry& registry) {
  std::vector<cache::Digest128> keys;
  for (const sweep::CircuitSpec& spec : circuits) {
    for (const std::string& name : techniques) {
      pipeline::CompileOptions opts = options.compile;
      registry.apply_tuning(name, opts);
      const circuit::Circuit input =
          circuit::transpile(spec.circuit, opts.transpile);
      opts.assume_transpiled = true;
      const cache::Digest128 fingerprint = cache::fingerprint(input);
      const auto passes = registry.make_pipeline(name, opts).pass_names();
      for (const sweep::MachineSpec& machine : machines) {
        keys.push_back(cache::result_key(fingerprint, name, passes,
                                         machine.config, opts,
                                         &options.noise, nullptr));
      }
    }
  }
  return keys;
}

void add_cache_layers(const cache::CacheStats& stats,
                      std::map<std::string, double>& layers) {
  layers["cache.result_hits"] += static_cast<double>(stats.result_hits);
  layers["cache.result_misses"] += static_cast<double>(stats.result_misses);
  layers["cache.memory_hits"] += static_cast<double>(stats.store.memory_hits);
  layers["cache.disk_hits"] += static_cast<double>(stats.store.disk_hits);
  layers["cache.stores"] += static_cast<double>(stats.store.stores);
  layers["cache.bytes_read"] += static_cast<double>(stats.store.bytes_read);
  layers["cache.bytes_written"] +=
      static_cast<double>(stats.store.bytes_written);
}

}  // namespace perfbench
