// The paper artifacts (Registry::global()) plus the registry and
// generate() plumbing. Each entry carries the rows and derived summary
// lines of one paper table or figure; `parallax_cli bench NAME` renders it.
#include "report/artifact.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <utility>

#include "bench_circuits/registry.hpp"
#include "circuit/transpile.hpp"
#include "hardware/config.hpp"
#include "noise/model.hpp"
#include "shots/parallelize.hpp"
#include "util/table.hpp"

namespace parallax::report {

namespace {

using util::format_compact;
using util::format_fixed;
using util::format_percent;
using util::format_sci;

/// The paper's three evaluated techniques, in its reporting order.
const std::vector<std::string> kPaperTechniques = {"graphine", "eldi",
                                                  "parallax"};

/// Keeps the entries of `defaults` selected by options.circuits, preserving
/// the defaults' order; an empty filter selects everything.
std::vector<std::string> restrict_to(std::vector<std::string> defaults,
                                     const Options& options) {
  if (options.circuits.empty()) return defaults;
  std::vector<std::string> kept;
  for (auto& name : defaults) {
    if (std::find(options.circuits.begin(), options.circuits.end(), name) !=
        options.circuits.end()) {
      kept.push_back(std::move(name));
    }
  }
  return kept;
}

/// The full Table III suite (every benchmark always runs — skipping the
/// slowest technique off full scale would bias comparisons), filtered.
std::vector<std::string> suite_names(const Options& options) {
  std::vector<std::string> names;
  for (const auto& info : bench_circuits::all_benchmarks()) {
    names.push_back(info.acronym);
  }
  return restrict_to(std::move(names), options);
}

bench_circuits::GenOptions gen_options(const Options& options) {
  bench_circuits::GenOptions gen;
  gen.seed = options.seed;
  gen.full_scale = options.full_scale;
  return gen;
}

/// Base sweep options for every artifact: the master seed; runtime fields
/// (threads, cache, streaming hooks) are the executor's business.
sweep::Options base_sweep_options(const Options& options) {
  sweep::Options sweep_options;
  sweep_options.compile.seed = options.seed;
  return sweep_options;
}

std::vector<sweep::MachineSpec> one_machine(
    const hardware::HardwareConfig& config) {
  return {{config.name, config}};
}

/// Circuits x techniques x machines with the shared bench methodology: the
/// transpiled circuit is shared per circuit and the GRAPHINE baseline
/// reuses Parallax's own annealed placement, so the two differ only in atom
/// movement vs SWAPs.
shard::SweepSpec suite_spec(const Options& options,
                            std::vector<sweep::MachineSpec> machines,
                            std::vector<std::string> techniques,
                            const std::vector<std::string>& circuits,
                            sweep::Options sweep_options) {
  shard::SweepSpec spec;
  spec.circuits = sweep::benchmark_circuits(circuits, gen_options(options));
  spec.techniques = std::move(techniques);
  spec.machines = std::move(machines);
  spec.options = std::move(sweep_options);
  return spec;
}

/// Single-phase planner: all specs on the first call, done on the second.
std::function<std::vector<shard::SweepSpec>(const Options&,
                                            const std::vector<sweep::Result>&)>
single_phase(std::function<std::vector<shard::SweepSpec>(const Options&)>
                 make_specs) {
  return [make_specs = std::move(make_specs)](
             const Options& options,
             const std::vector<sweep::Result>& prior) {
    if (!prior.empty()) return std::vector<shard::SweepSpec>{};
    return make_specs(options);
  };
}

Rendered base_rendered(const Artifact& artifact) {
  Rendered rendered;
  rendered.artifact = artifact.name;
  rendered.title = artifact.title;
  rendered.description = artifact.description;
  return rendered;
}

/// Shared guard for suite artifacts whose circuit filter selected nothing.
Rendered empty_selection(const Artifact& artifact) {
  Rendered rendered = base_rendered(artifact);
  rendered.summary.push_back(
      "No benchmarks selected (the --benchmarks filter excludes every "
      "circuit this artifact reports).");
  return rendered;
}

std::string format_signed_points(double fraction) {
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%+.0f%%", 100.0 * fraction);
  return buffer;
}

// --- Table II: hardware parameters --------------------------------------------

Artifact make_table02() {
  Artifact artifact;
  artifact.name = "table02";
  artifact.title = "Table II";
  artifact.description = "Hardware parameters used for evaluation";
  artifact.plan = single_phase(
      [](const Options&) { return std::vector<shard::SweepSpec>{}; });
  artifact.render = [artifact](const Options&,
                               const std::vector<sweep::Result>&) {
    const auto quera = hardware::HardwareConfig::quera_aquila_256();
    const auto atom = hardware::HardwareConfig::atom_computing_1225();
    Rendered rendered = base_rendered(artifact);
    Block block;
    block.header = {"Parameter", "Value", "Paper value"};
    block.rows = {
        {"Number of qubits",
         std::to_string(quera.n_atoms()) + " & " +
             std::to_string(atom.n_atoms()),
         "256 & 1,225"},
        {"Time to switch traps (us)",
         format_fixed(quera.trap_switch_time_us, 0), "100"},
        {"AOD movement speed (um/us)",
         format_fixed(quera.aod_speed_um_per_us, 0), "55"},
        {"T1 coherence time (s)", format_fixed(quera.t1_seconds, 2), "4.0"},
        {"T2 coherence time (s)", format_fixed(quera.t2_seconds, 2), "1.49"},
        {"SWAP gate error", format_percent(quera.swap_error), "1.43%"},
        {"Atom loss rate", format_percent(quera.atom_loss_rate), "0.7%"},
        {"U3 gate error", format_percent(quera.u3_error), "0.0127%"},
        {"U3 gate time (us)", format_fixed(quera.u3_time_us, 1), "2"},
        {"CZ gate error", format_percent(quera.cz_error), "0.48%"},
        {"CZ gate time (us)", format_fixed(quera.cz_time_us, 1), "0.8"},
        {"Readout error", format_percent(quera.readout_error), "5%"},
        {"AOD rows x cols",
         std::to_string(quera.aod_rows) + " x " +
             std::to_string(quera.aod_cols),
         "20 x 20"},
        {"Min separation (um)", format_fixed(quera.min_separation_um, 1),
         "(not stated)"},
        {"Site pitch = 2*sep + pad (um)", format_fixed(quera.pitch_um(), 1),
         "(derived)"},
    };
    rendered.blocks.push_back(std::move(block));
    return rendered;
  };
  return artifact;
}

// --- Table III: the benchmark suite -------------------------------------------

Artifact make_table03() {
  Artifact artifact;
  artifact.name = "table03";
  artifact.title = "Table III";
  artifact.description = "Algorithms and benchmarks used for evaluation";
  artifact.plan = single_phase(
      [](const Options&) { return std::vector<shard::SweepSpec>{}; });
  artifact.render = [artifact](const Options& options,
                               const std::vector<sweep::Result>&) {
    const auto selected = suite_names(options);
    if (selected.empty()) return empty_selection(artifact);
    Rendered rendered = base_rendered(artifact);
    Block block;
    block.header = {"Acronym", "Qubits",      "U3 gates",
                    "CZ gates", "Depth",      "Description"};
    const auto gen = gen_options(options);
    for (const auto& info : bench_circuits::all_benchmarks()) {
      if (std::find(selected.begin(), selected.end(), info.acronym) ==
          selected.end()) {
        continue;
      }
      const auto circuit = info.make(gen);
      const auto transpiled = circuit::transpile(circuit);
      block.rows.push_back({info.acronym, std::to_string(info.qubits),
                            std::to_string(transpiled.u3_count()),
                            std::to_string(transpiled.cz_count()),
                            std::to_string(transpiled.depth()),
                            info.description});
    }
    rendered.blocks.push_back(std::move(block));
    return rendered;
  };
  return artifact;
}

// --- Table IV: single-shot runtimes on both machines --------------------------

Artifact make_table04() {
  Artifact artifact;
  artifact.name = "table04";
  artifact.title = "Table IV";
  artifact.description =
      "Circuit runtime (us) on 256-qubit and 1,225-qubit machines; lower is "
      "better";
  artifact.plan = single_phase([](const Options& options) {
    const auto circuits = suite_names(options);
    if (circuits.empty()) return std::vector<shard::SweepSpec>{};
    const auto quera = hardware::HardwareConfig::quera_aquila_256();
    const auto atom = hardware::HardwareConfig::atom_computing_1225();
    return std::vector<shard::SweepSpec>{
        suite_spec(options, {{quera.name, quera}, {atom.name, atom}},
                   kPaperTechniques, circuits, base_sweep_options(options))};
  });
  artifact.render = [artifact](const Options& options,
                               const std::vector<sweep::Result>& results) {
    const auto circuits = suite_names(options);
    if (circuits.empty()) return empty_selection(artifact);
    const auto quera = hardware::HardwareConfig::quera_aquila_256();
    const auto atom = hardware::HardwareConfig::atom_computing_1225();
    const sweep::Result& suite = results.at(0);

    Rendered rendered = base_rendered(artifact);
    Block block;
    block.header = {"Bench",          "Eldi/256",      "Graphine/256",
                    "Parallax/256",   "Eldi/1225",     "Graphine/1225",
                    "Parallax/1225",  "P trap-chg 256", "P trap-chg 1225"};
    int faster_on_1225 = 0;
    for (const auto& name : circuits) {
      const auto& small = suite.at(name, "parallax", quera.name).result;
      const auto& large = suite.at(name, "parallax", atom.name).result;
      block.rows.push_back(
          {name,
           format_compact(suite.at(name, "eldi", quera.name).result.runtime_us),
           format_compact(
               suite.at(name, "graphine", quera.name).result.runtime_us),
           format_compact(small.runtime_us),
           format_compact(suite.at(name, "eldi", atom.name).result.runtime_us),
           format_compact(
               suite.at(name, "graphine", atom.name).result.runtime_us),
           format_compact(large.runtime_us),
           std::to_string(small.stats.trap_changes),
           std::to_string(large.stats.trap_changes)});
      if (large.runtime_us <= small.runtime_us) ++faster_on_1225;
    }
    rendered.blocks.push_back(std::move(block));
    rendered.summary.push_back(
        "Parallax runtime improves (or holds) on the larger machine for " +
        std::to_string(faster_on_1225) + "/" +
        std::to_string(circuits.size()) + " benchmarks —");
    rendered.summary.push_back(
        "the paper's scaling claim: more space -> near-optimal topology -> "
        "fewer trap changes.");

    // Per-pass compile-time profile: wall-clock-dependent, so it rides in
    // volatile_text (stderr) instead of the canonical rendered document.
    // "(c)" marks a stage whose product came from a cache — the in-sweep
    // placement memo or the persistent session cache (a whole row of (c) is
    // a warm result-cache hit that ran no pass at all).
    const auto& first_timings =
        suite.at(circuits.front(), "parallax", quera.name).result.pass_timings;
    if (first_timings.empty()) {
      // The cell codec drops pass timings, so cells served over a socket
      // carry none; a table of them would be a column of zeros.
      rendered.volatile_text =
          "Parallax per-pass compile time on " + quera.name +
          ": not shown (per-pass times are not carried over a serve socket)";
      return rendered;
    }
    std::vector<std::string> headers = {"Bench"};
    for (const auto& timing : first_timings) headers.push_back(timing.pass);
    headers.push_back("total");
    util::Table timing_table(headers);
    const auto format_pass = [](double seconds, bool cached) {
      char buffer[40];
      std::snprintf(buffer, sizeof(buffer), "%.1fms%s", seconds * 1e3,
                    cached ? " (c)" : "");
      return std::string(buffer);
    };
    for (const auto& name : circuits) {
      const auto& cell = suite.at(name, "parallax", quera.name);
      std::vector<std::string> row = {name};
      double total = 0.0;
      for (const auto& timing : cell.result.pass_timings) {
        row.push_back(format_pass(timing.seconds, timing.cached));
        total += timing.seconds;
      }
      row.push_back(format_pass(total, cell.from_cache));
      timing_table.add_row(row);
    }
    rendered.volatile_text = "Parallax per-pass compile time on " +
                             quera.name + " ((c) = cache hit):\n" +
                             timing_table.to_string();
    return rendered;
  };
  return artifact;
}

// --- Fig. 9: CZ gate counts ---------------------------------------------------

shard::SweepSpec quera_suite_spec(const Options& options,
                                  const std::vector<std::string>& circuits) {
  const auto config = hardware::HardwareConfig::quera_aquila_256();
  return suite_spec(options, one_machine(config), kPaperTechniques, circuits,
                    base_sweep_options(options));
}

Artifact make_fig09() {
  Artifact artifact;
  artifact.name = "fig09";
  artifact.title = "Figure 9";
  artifact.description =
      "CZ gate counts (incl. 3 per SWAP), QuEra 256-qubit machine; lower is "
      "better";
  artifact.plan = single_phase([](const Options& options) {
    const auto circuits = suite_names(options);
    if (circuits.empty()) return std::vector<shard::SweepSpec>{};
    return std::vector<shard::SweepSpec>{quera_suite_spec(options, circuits)};
  });
  artifact.render = [artifact](const Options& options,
                               const std::vector<sweep::Result>& results) {
    const auto circuits = suite_names(options);
    if (circuits.empty()) return empty_selection(artifact);
    const sweep::Result& suite = results.at(0);

    Rendered rendered = base_rendered(artifact);
    Block block;
    block.header = {"Bench", "Graphine", "Eldi",   "Parallax",
                    "P vs G", "P vs E",  "P swaps"};
    double geo_vs_g = 0.0, geo_vs_e = 0.0;
    int count_g = 0, count_e = 0;
    for (const auto& name : circuits) {
      const auto g = suite.at(name, "graphine").result.stats.effective_cz();
      const auto e = suite.at(name, "eldi").result.stats.effective_cz();
      const auto& parallax_cell = suite.at(name, "parallax");
      const auto p = parallax_cell.result.stats.effective_cz();
      const auto reduction = [](std::size_t baseline, std::size_t ours) {
        return baseline == 0 ? 0.0
                             : 1.0 - static_cast<double>(ours) /
                                         static_cast<double>(baseline);
      };
      if (g > 0) {
        geo_vs_g += reduction(g, p);
        ++count_g;
      }
      if (e > 0) {
        geo_vs_e += reduction(e, p);
        ++count_e;
      }
      block.rows.push_back(
          {name, std::to_string(g), std::to_string(e), std::to_string(p),
           format_percent(reduction(g, p)), format_percent(reduction(e, p)),
           std::to_string(parallax_cell.result.stats.swap_gates)});
    }
    rendered.blocks.push_back(std::move(block));
    rendered.summary.push_back(
        "Average CZ reduction: " +
        format_percent(geo_vs_g / std::max(1, count_g)) +
        " vs Graphine (paper: 39%), " +
        format_percent(geo_vs_e / std::max(1, count_e)) +
        " vs Eldi (paper: 25%)");
    rendered.summary.push_back(
        "Parallax SWAP count is zero for every circuit (zero-SWAP "
        "guarantee).");
    return rendered;
  };
  return artifact;
}

// --- Fig. 10: probability of success ------------------------------------------

Artifact make_fig10() {
  Artifact artifact;
  artifact.name = "fig10";
  artifact.title = "Figure 10";
  artifact.description =
      "Probability of success, QuEra 256-qubit machine; higher is better";
  // Identical spec to fig09 — against a warm session the whole sweep is a
  // result-hit replay, which is exactly the point of the shared session.
  artifact.plan = single_phase([](const Options& options) {
    const auto circuits = suite_names(options);
    if (circuits.empty()) return std::vector<shard::SweepSpec>{};
    return std::vector<shard::SweepSpec>{quera_suite_spec(options, circuits)};
  });
  artifact.render = [artifact](const Options& options,
                               const std::vector<sweep::Result>& results) {
    const auto circuits = suite_names(options);
    if (circuits.empty()) return empty_selection(artifact);
    const sweep::Result& suite = results.at(0);

    Rendered rendered = base_rendered(artifact);
    Block block;
    block.header = {"Bench", "Graphine", "Eldi", "Parallax", "P % of best",
                    "Best"};
    double sum_gain_g = 0.0, sum_gain_e = 0.0;
    int n_g = 0, n_e = 0;
    for (const auto& name : circuits) {
      const double pg = suite.at(name, "graphine").success_probability;
      const double pe = suite.at(name, "eldi").success_probability;
      const double pp = suite.at(name, "parallax").success_probability;
      const double best = std::max({pg, pe, pp});
      const char* who =
          (best == pp) ? "Parallax" : (best == pe ? "Eldi" : "Graphine");
      // Improvement in percentage points of the best-case-normalized scale
      // (the scale Fig. 10 plots); raw ratios explode when a baseline
      // decays to ~0 (e.g. QV under ELDI).
      if (best > 0) {
        sum_gain_g += (pp - pg) / best;
        ++n_g;
        sum_gain_e += (pp - pe) / best;
        ++n_e;
      }
      block.rows.push_back({name, format_sci(pg), format_sci(pe),
                            format_sci(pp),
                            best > 0 ? format_percent(pp / best) : "n/a",
                            who});
    }
    rendered.blocks.push_back(std::move(block));
    rendered.summary.push_back(
        "Average success-probability improvement, in points of the "
        "best-case-normalized scale:");
    rendered.summary.push_back(
        "  vs Graphine: " +
        format_signed_points(sum_gain_g / std::max(1, n_g)) +
        " (paper: +46%)");
    rendered.summary.push_back(
        "  vs Eldi: " + format_signed_points(sum_gain_e / std::max(1, n_e)) +
        " (paper: +28%)");
    return rendered;
  };
  return artifact;
}

// --- Fig. 11: parallel shots --------------------------------------------------

const std::vector<std::string> kFig11Circuits = {"ADV",  "KNN",  "QV",
                                                 "SECA", "SQRT", "WST"};

std::string k_label(std::int32_t k) {
  return std::string("k").append(std::to_string(k));
}

sweep::MachineSpec fig11_budget_machine(
    const hardware::HardwareConfig& base_config, std::int32_t k) {
  auto config = base_config;
  config.aod_rows = config.aod_cols = std::max(1, base_config.aod_rows / k);
  return {k_label(k), config};
}

sweep::Options fig11_sweep_options(const Options& options) {
  auto sweep_options = base_sweep_options(options);
  // Circuits are laid out compactly (spread 1.2) so copies tile the grid;
  // fig11 reads runtimes only.
  sweep_options.compile.discretize.spread_factor = 1.2;
  sweep_options.compute_success_probability = false;
  return sweep_options;
}

/// Largest feasible parallelization factor per circuit, bounded by the
/// serial (k=1) compile's footprint: the footprint is independent of the
/// AOD budget (fixed by placement + discretization), so the k=1 compile
/// bounds the feasible factors exactly.
std::map<std::string, std::int32_t> fig11_feasible_k(
    const Options& options, const sweep::Result& serial_suite) {
  const auto base_config = hardware::HardwareConfig::atom_computing_1225();
  const std::int32_t max_k =
      std::min(base_config.aod_rows, base_config.grid_side);
  std::map<std::string, std::int32_t> feasible;
  for (const auto& name : restrict_to(kFig11Circuits, options)) {
    const std::int32_t side =
        shots::footprint_side(serial_suite.at(name, "parallax").result);
    feasible[name] = std::max(
        1, std::min(max_k, base_config.grid_side / std::max(1, side)));
  }
  return feasible;
}

Artifact make_fig11() {
  Artifact artifact;
  artifact.name = "fig11";
  artifact.title = "Figure 11";
  artifact.description =
      "Total execution time (s) of 8,000 logical shots vs parallelization "
      "factor,\nAtom 1,225-qubit machine (log-log in the paper); lower is "
      "better";
  // Two-phase plan: the baselines + serial sweeps first, then one
  // parallax-only sweep per circuit whose feasible parallelization budgets
  // (derived from the serial compile's footprint) allow k >= 2. Copies
  // share the machine's AOD rows/columns (paper Sec. II-E), so at factor
  // k x k each copy may use floor(20 / k) row/column pairs.
  artifact.plan = [](const Options& options,
                     const std::vector<sweep::Result>& prior) {
    const auto circuits = restrict_to(kFig11Circuits, options);
    if (circuits.empty()) return std::vector<shard::SweepSpec>{};
    const auto base_config = hardware::HardwareConfig::atom_computing_1225();
    const auto sweep_options = fig11_sweep_options(options);
    if (prior.empty()) {
      // Baselines have static atoms: compile once on the base machine and
      // parallelize by tiling. Parallax is recompiled per AOD budget,
      // starting from the serial k=1 compile.
      return std::vector<shard::SweepSpec>{
          suite_spec(options, one_machine(base_config), {"eldi", "graphine"},
                     circuits, sweep_options),
          suite_spec(options, {fig11_budget_machine(base_config, 1)},
                     {"parallax"}, circuits, sweep_options)};
    }
    if (prior.size() != 2) return std::vector<shard::SweepSpec>{};
    const auto feasible = fig11_feasible_k(options, prior.at(1));
    std::vector<shard::SweepSpec> specs;
    for (const auto& name : circuits) {
      std::vector<sweep::MachineSpec> budgets;
      for (std::int32_t k = 2; k <= feasible.at(name); ++k) {
        budgets.push_back(fig11_budget_machine(base_config, k));
      }
      if (!budgets.empty()) {
        specs.push_back(suite_spec(options, std::move(budgets), {"parallax"},
                                   {name}, sweep_options));
      }
    }
    return specs;
  };
  artifact.render = [artifact](const Options& options,
                               const std::vector<sweep::Result>& results) {
    const auto circuits = restrict_to(kFig11Circuits, options);
    if (circuits.empty()) return empty_selection(artifact);
    const auto base_config = hardware::HardwareConfig::atom_computing_1225();
    const sweep::Result& baselines = results.at(0);
    const sweep::Result& serial_suite = results.at(1);
    const auto feasible = fig11_feasible_k(options, serial_suite);

    // Map each circuit with feasible k >= 2 to its phase-two sweep, in the
    // plan's circuit order.
    std::map<std::string, const sweep::Result*> parallel_suites;
    std::size_t next = 2;
    for (const auto& name : circuits) {
      if (feasible.at(name) >= 2) parallel_suites[name] = &results.at(next++);
    }
    const auto parallax_cell =
        [&](const std::string& name, std::int32_t k) -> const sweep::Cell& {
      return k == 1 ? serial_suite.at(name, "parallax")
                    : parallel_suites.at(name)->at(name, "parallax",
                                                   k_label(k));
    };

    Rendered rendered = base_rendered(artifact);
    const shots::ShotOptions shot_options;
    for (const auto& name : circuits) {
      const auto& eldi_result = baselines.at(name, "eldi").result;
      const auto& graphine_result = baselines.at(name, "graphine").result;
      Block block;
      block.title = name;
      block.header = {"Factor (copies)", "AOD/copy", "Graphine (s)",
                      "Eldi (s)", "Parallax (s)"};
      double parallax_serial = 0.0, parallax_best = 0.0;
      for (std::int32_t k = 1; k <= feasible.at(name); ++k) {
        const auto& parallax_result = parallax_cell(name, k).result;
        // Feasibility is judged against the full machine: the per-copy AOD
        // budget (20/k lines) already guarantees k bands of copies fit the
        // 20 shared physical lines.
        const auto pp = shots::plan_parallel_shots(parallax_result,
                                                   base_config, k,
                                                   shot_options);
        const auto pe = shots::plan_parallel_shots(eldi_result, base_config,
                                                   k, shot_options);
        const auto pg = shots::plan_parallel_shots(graphine_result,
                                                   base_config, k,
                                                   shot_options);
        if (k == 1) parallax_serial = pp.total_execution_time_us;
        parallax_best = pp.total_execution_time_us;
        block.rows.push_back(
            {std::to_string(k * k),
             std::to_string(std::max(1, base_config.aod_rows / k)),
             format_fixed(pg.total_execution_time_us * 1e-6, 4),
             format_fixed(pe.total_execution_time_us * 1e-6, 4),
             format_fixed(pp.total_execution_time_us * 1e-6, 4)});
      }
      if (parallax_serial > 0 && block.rows.size() > 1) {
        block.notes.push_back(
            "Parallax total-time reduction at max parallelism: " +
            format_percent(1.0 - parallax_best / parallax_serial) +
            " (paper: 97% average)");
      }
      rendered.blocks.push_back(std::move(block));
    }
    return rendered;
  };
  return artifact;
}

// --- Fig. 12: home-return ablation --------------------------------------------

Artifact make_fig12() {
  Artifact artifact;
  artifact.name = "fig12";
  artifact.title = "Figure 12";
  artifact.description =
      "Ablation: AOD home-return vs no-return runtimes (us), 1,225-qubit "
      "machine; lower is better";
  // Two parallax-only sweeps differing in one scheduler flag; the annealed
  // placement is identical (same seed derivation), so the comparison
  // isolates the home-return step.
  artifact.plan = single_phase([](const Options& options) {
    const auto circuits = suite_names(options);
    if (circuits.empty()) return std::vector<shard::SweepSpec>{};
    const auto config = hardware::HardwareConfig::atom_computing_1225();
    auto no_return = base_sweep_options(options);
    no_return.compile.scheduler.return_home = false;
    return std::vector<shard::SweepSpec>{
        suite_spec(options, one_machine(config), {"parallax"}, circuits,
                   base_sweep_options(options)),
        suite_spec(options, one_machine(config), {"parallax"}, circuits,
                   std::move(no_return))};
  });
  artifact.render = [artifact](const Options& options,
                               const std::vector<sweep::Result>& results) {
    const auto circuits = suite_names(options);
    if (circuits.empty()) return empty_selection(artifact);
    const sweep::Result& with_home = results.at(0);
    const sweep::Result& without_home = results.at(1);

    Rendered rendered = base_rendered(artifact);
    Block block;
    block.header = {"Bench", "No home return", "With home return (Parallax)",
                    "Change", "CZ equal?"};
    double sum_change = 0.0;
    int n = 0;
    for (const auto& name : circuits) {
      const auto& a = with_home.at(name, "parallax").result;
      const auto& b = without_home.at(name, "parallax").result;
      const double change = b.runtime_us > 0
                                ? (a.runtime_us - b.runtime_us) / b.runtime_us
                                : 0.0;
      sum_change += change;
      ++n;
      block.rows.push_back({name, format_compact(b.runtime_us),
                            format_compact(a.runtime_us),
                            format_percent(change),
                            a.stats.cz_gates == b.stats.cz_gates ? "yes"
                                                                 : "NO"});
    }
    rendered.blocks.push_back(std::move(block));
    rendered.summary.push_back(
        "Average runtime change from home-return: " +
        format_signed_points(sum_change / std::max(1, n)) +
        " (paper: -40% — home-return is faster).");
    rendered.summary.push_back(
        "CZ counts are identical in both modes, so success probability is "
        "negligibly affected.");
    return rendered;
  };
  return artifact;
}

// --- Fig. 13: AOD count ablation ----------------------------------------------

const std::vector<std::int32_t> kFig13AodCounts = {1, 5, 10, 20, 40};

Artifact make_fig13() {
  Artifact artifact;
  artifact.name = "fig13";
  artifact.title = "Figure 13";
  artifact.description =
      "Ablation: Parallax runtime (us) vs AOD row/column count, 256-qubit "
      "machine; lower is better";
  // The AOD variants are machine specs of one sweep, so all five compile
  // runs of a circuit share one memoized Graphine placement.
  artifact.plan = single_phase([](const Options& options) {
    const auto circuits = suite_names(options);
    if (circuits.empty()) return std::vector<shard::SweepSpec>{};
    std::vector<sweep::MachineSpec> machines;
    for (const auto count : kFig13AodCounts) {
      auto config = hardware::HardwareConfig::quera_aquila_256();
      config.aod_rows = config.aod_cols = count;
      machines.push_back({"aod" + std::to_string(count), config});
    }
    return std::vector<shard::SweepSpec>{
        suite_spec(options, std::move(machines), {"parallax"}, circuits,
                   base_sweep_options(options))};
  });
  artifact.render = [artifact](const Options& options,
                               const std::vector<sweep::Result>& results) {
    const auto circuits = suite_names(options);
    if (circuits.empty()) return empty_selection(artifact);
    const sweep::Result& suite = results.at(0);

    Rendered rendered = base_rendered(artifact);
    Block block;
    block.header = {"Bench",  "AOD 1",              "AOD 5",
                    "AOD 10", "AOD 20 (Parallax)", "AOD 40"};
    std::map<std::int32_t, double> sum_normalized;
    for (const auto& name : circuits) {
      std::vector<std::string> row{name};
      std::map<std::int32_t, double> runtime;
      double worst = 0.0;
      for (const auto count : kFig13AodCounts) {
        const auto& cell =
            suite.at(name, "parallax", "aod" + std::to_string(count));
        runtime[count] = cell.result.runtime_us;
        worst = std::max(worst, cell.result.runtime_us);
        row.push_back(format_compact(cell.result.runtime_us));
      }
      for (const auto count : kFig13AodCounts) {
        if (worst > 0) sum_normalized[count] += runtime[count] / worst;
      }
      block.rows.push_back(std::move(row));
    }
    rendered.blocks.push_back(std::move(block));
    rendered.summary.push_back(
        "Average runtime as % of each benchmark's worst case (paper: "
        "1-count 91%, 5-count 71%,");
    rendered.summary.push_back("10-count 68%, 20-count 64%, 40-count 68%):");
    const double n = static_cast<double>(circuits.size());
    for (const auto count : kFig13AodCounts) {
      char label[16];
      std::snprintf(label, sizeof(label), "%2d", count);
      rendered.summary.push_back("  AOD count " + std::string(label) + ": " +
                                 format_percent(sum_normalized[count] / n));
    }
    return rendered;
  };
  return artifact;
}

// --- Extra design-choice ablations --------------------------------------------

const std::vector<std::string> kAblationCircuits = {"HLF", "QAOA", "QFT",
                                                    "KNN", "QV",   "TFIM"};

struct WeightVariant {
  const char* label;
  double oor;
  double intf;
};

const std::vector<WeightVariant> kWeightVariants = {
    {"paper 0.99/0.01", 0.99, 0.01},
    {"inverted 0.01/0.99", 0.01, 0.99},
    {"oor only 1.0/0.0", 1.0, 0.0},
    {"uniform 0.5/0.5", 0.5, 0.5},
};

const std::vector<double> kSpreadVariants = {1.0, 1.5, 2.0, 3.0};

Artifact make_ablation() {
  Artifact artifact;
  artifact.name = "ablation";
  artifact.title = "Ablation (extra)";
  artifact.description =
      "Design-choice ablations: AOD-selection weights and discretization "
      "spread, 256-qubit machine";
  // One parallax-only sweep per variant with the knob changed in the base
  // compile options — all serializable, so the whole artifact streams
  // through a serve session like any other.
  artifact.plan = single_phase([](const Options& options) {
    const auto circuits = restrict_to(kAblationCircuits, options);
    if (circuits.empty()) return std::vector<shard::SweepSpec>{};
    const auto config = hardware::HardwareConfig::quera_aquila_256();
    std::vector<shard::SweepSpec> specs;
    for (const auto& variant : kWeightVariants) {
      auto sweep_options = base_sweep_options(options);
      sweep_options.compile.aod_selection.out_of_range_weight = variant.oor;
      sweep_options.compile.aod_selection.interference_weight = variant.intf;
      specs.push_back(suite_spec(options, one_machine(config), {"parallax"},
                                 circuits, std::move(sweep_options)));
    }
    for (const double spread : kSpreadVariants) {
      auto sweep_options = base_sweep_options(options);
      sweep_options.compile.discretize.spread_factor = spread;
      specs.push_back(suite_spec(options, one_machine(config), {"parallax"},
                                 circuits, std::move(sweep_options)));
    }
    return specs;
  });
  artifact.render = [artifact](const Options& options,
                               const std::vector<sweep::Result>& results) {
    const auto circuits = restrict_to(kAblationCircuits, options);
    if (circuits.empty()) return empty_selection(artifact);
    const auto cell_text = [](const sweep::Cell& cell) {
      return format_compact(cell.result.runtime_us) + " / " +
             std::to_string(cell.result.stats.trap_changes);
    };

    Rendered rendered = base_rendered(artifact);
    Block weights;
    weights.title =
        "(a) AOD selection weight split — runtime (us) / trap changes";
    weights.header = {"Bench"};
    for (const auto& variant : kWeightVariants) {
      weights.header.push_back(variant.label);
    }
    for (const auto& name : circuits) {
      std::vector<std::string> row{name};
      for (std::size_t i = 0; i < kWeightVariants.size(); ++i) {
        row.push_back(cell_text(results.at(i).at(name, "parallax")));
      }
      weights.rows.push_back(std::move(row));
    }
    rendered.blocks.push_back(std::move(weights));

    Block spreads;
    spreads.title =
        "(b) Discretization spread factor — runtime (us) / trap changes "
        "(2.0 is the default)";
    spreads.header = {"Bench"};
    for (const double spread : kSpreadVariants) {
      spreads.header.push_back("spread " + format_fixed(spread, 1));
    }
    for (const auto& name : circuits) {
      std::vector<std::string> row{name};
      for (std::size_t i = 0; i < kSpreadVariants.size(); ++i) {
        row.push_back(cell_text(
            results.at(kWeightVariants.size() + i).at(name, "parallax")));
      }
      spreads.rows.push_back(std::move(row));
    }
    rendered.blocks.push_back(std::move(spreads));

    rendered.summary.push_back(
        "Takeaways: the out-of-range criterion must dominate (inverting the "
        "split strands");
    rendered.summary.push_back(
        "out-of-range pairs without mobile endpoints); compact footprints "
        "(spread 1.0) trade");
    rendered.summary.push_back(
        "runtime for parallelizability, which is exactly the Fig. 11 "
        "configuration.");
    return rendered;
  };
  return artifact;
}

// --- Compile-time scaling -----------------------------------------------------

const std::vector<std::int32_t> kCompileTimeSizes = {8, 16, 24, 32};
const std::vector<std::string> kCompileTimeTechniques = {"parallax", "eldi",
                                                         "graphine", "static"};

Artifact make_compile_time() {
  Artifact artifact;
  artifact.name = "compile-time";
  artifact.title = "Compile time";
  artifact.description =
      "Compile-cost structure across QV sizes (Sec. III: polynomial "
      "complexity, O(q^5) dominated by placement); measured wall times on "
      "stderr";
  // QV at growing sizes, every technique, with a fixed small annealing
  // budget so the scheduler terms are visible next to placement. The
  // deterministic work metrics (gates, layers, moves) are the rendered
  // rows; measured wall-clock rides in volatile_text so a warm rerun's
  // rendered output stays byte-identical.
  artifact.plan = single_phase([](const Options& options) {
    bench_circuits::GenOptions gen;
    gen.seed = options.seed;
    shard::SweepSpec spec;
    for (const auto n : kCompileTimeSizes) {
      spec.circuits.push_back(
          {"QV" + std::to_string(n),
           circuit::transpile(bench_circuits::make_qv(n, n - 1, gen))});
    }
    spec.techniques = kCompileTimeTechniques;
    const auto config = hardware::HardwareConfig::quera_aquila_256();
    spec.machines = one_machine(config);
    spec.options = base_sweep_options(options);
    spec.options.compile.assume_transpiled = true;
    spec.options.compile.placement.anneal_iterations = 100;
    spec.options.compile.placement.local_search_evaluations = 100;
    spec.options.compute_success_probability = false;
    return std::vector<shard::SweepSpec>{std::move(spec)};
  });
  artifact.render = [artifact](const Options&,
                               const std::vector<sweep::Result>& results) {
    const sweep::Result& suite = results.at(0);
    Rendered rendered = base_rendered(artifact);
    Block block;
    block.header = {"Circuit",  "Qubits",    "Technique",   "CZ gates",
                    "Eff. CZ",  "Layers",    "AOD moves",   "Trap changes"};
    util::Table timing_table({"Circuit", "Technique", "Compile (ms)"});
    for (std::size_t i = 0; i < kCompileTimeSizes.size(); ++i) {
      const std::string name = "QV" + std::to_string(kCompileTimeSizes[i]);
      for (const auto& technique : kCompileTimeTechniques) {
        const auto& cell = suite.at(name, technique);
        block.rows.push_back(
            {name, std::to_string(kCompileTimeSizes[i]), technique,
             std::to_string(cell.result.stats.cz_gates),
             std::to_string(cell.result.stats.effective_cz()),
             std::to_string(cell.result.stats.layers),
             std::to_string(cell.result.stats.aod_moves),
             std::to_string(cell.result.stats.trap_changes)});
        char ms[48];
        std::snprintf(ms, sizeof(ms), "%.1f%s", cell.compile_seconds * 1e3,
                      cell.from_cache ? " (c)" : "");
        timing_table.add_row({name, technique, ms});
      }
    }
    rendered.blocks.push_back(std::move(block));
    rendered.summary.push_back(
        "Placement annealing budget fixed at 100 iterations / 100 "
        "local-search evaluations,");
    rendered.summary.push_back(
        "so the lower-order scheduling terms are visible next to the O(q^5) "
        "placement step.");
    rendered.volatile_text =
        "Measured compile wall-clock ((c) = served from cache):\n" +
        timing_table.to_string();
    return rendered;
  };
  return artifact;
}

// --- Sim vs model: Monte Carlo validation of the noise model ------------------

/// Paper circuits the validation sweeps by default: the two the issue names
/// (WST, TFIM) plus QAOA and QV for small/large layer-count coverage.
const std::vector<std::string> kSimVsModelCircuits = {"QAOA", "QV", "TFIM",
                                                     "WST"};
constexpr std::int64_t kSimVsModelShots = 1024;

Artifact make_sim_vs_model() {
  Artifact artifact;
  artifact.name = "sim-vs-model";
  artifact.title = "Sim vs model";
  artifact.description =
      "Closed-form success probability vs discrete-event Monte Carlo "
      "simulation with matched error channels, QuEra 256-qubit machine";
  // Two sweeps of the same cells differing only in the fidelity backend:
  // spec A scores with noise::success_probability, spec B replays each
  // schedule shot-by-shot through src/sim. Same seed derivation, so the
  // compiled schedules are identical and only the scoring differs.
  artifact.plan = single_phase([](const Options& options) {
    const auto circuits = restrict_to(kSimVsModelCircuits, options);
    if (circuits.empty()) return std::vector<shard::SweepSpec>{};
    const auto config = hardware::HardwareConfig::quera_aquila_256();
    auto simulated = base_sweep_options(options);
    simulated.compile.fidelity.model = noise::FidelityModel::kSimulated;
    simulated.compile.fidelity.shots = kSimVsModelShots;
    return std::vector<shard::SweepSpec>{
        suite_spec(options, one_machine(config), kPaperTechniques, circuits,
                   base_sweep_options(options)),
        suite_spec(options, one_machine(config), kPaperTechniques, circuits,
                   std::move(simulated))};
  });
  artifact.render = [artifact](const Options& options,
                               const std::vector<sweep::Result>& results) {
    const auto circuits = restrict_to(kSimVsModelCircuits, options);
    if (circuits.empty()) return empty_selection(artifact);
    const sweep::Result& model = results.at(0);
    const sweep::Result& simulated = results.at(1);

    Rendered rendered = base_rendered(artifact);
    Block block;
    block.header = {"Bench", "Technique", "Model p", "Simulated p",
                    "Std err", "|z|"};
    double worst_z = 0.0;
    std::string worst_cell = "none";
    int n = 0;
    for (const auto& name : circuits) {
      for (const auto& technique : kPaperTechniques) {
        const double p_model = model.at(name, technique).success_probability;
        const double p_sim =
            simulated.at(name, technique).success_probability;
        // Binomial standard error at the model's p: the yardstick the shots
        // are expected to scatter within when the channels really match.
        const double sigma = std::sqrt(p_model * (1.0 - p_model) /
                                       static_cast<double>(kSimVsModelShots));
        const bool exact = sigma <= 0.0;
        const double z = exact ? (p_sim == p_model ? 0.0 : 1e9)
                               : std::abs(p_sim - p_model) / sigma;
        if (z >= worst_z) {
          worst_z = z;
          worst_cell = name + "/" + technique;
        }
        ++n;
        block.rows.push_back({name, technique, format_sci(p_model),
                              format_sci(p_sim), format_sci(sigma),
                              format_fixed(z, 2)});
      }
    }
    rendered.blocks.push_back(std::move(block));
    rendered.summary.push_back(
        "Monte Carlo simulation at " + std::to_string(kSimVsModelShots) +
        " shots/cell, matched error channels; |z| = |model - simulated| in "
        "binomial standard errors.");
    rendered.summary.push_back(
        "Worst agreement across " + std::to_string(n) + " cells: " +
        format_fixed(worst_z, 2) + " sigma (" + worst_cell +
        "); the acceptance band is 3 sigma.");
    return rendered;
  };
  return artifact;
}

}  // namespace

// --- registry + generate ------------------------------------------------------

void Registry::add(Artifact artifact) {
  if (find(artifact.name) != nullptr) {
    throw ReportError("duplicate artifact name '" + artifact.name + "'");
  }
  artifacts_.push_back(std::move(artifact));
}

const Artifact* Registry::find(const std::string& name) const noexcept {
  for (const auto& artifact : artifacts_) {
    if (artifact.name == name) return &artifact;
  }
  return nullptr;
}

const Artifact& Registry::at(const std::string& name) const {
  if (const Artifact* artifact = find(name)) return *artifact;
  std::string known;
  for (const auto& artifact : artifacts_) {
    if (!known.empty()) known += ", ";
    known += artifact.name;
  }
  throw UnknownArtifactError("unknown artifact '" + name + "' (known: " +
                             known + ")");
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> names;
  names.reserve(artifacts_.size());
  for (const auto& artifact : artifacts_) names.push_back(artifact.name);
  return names;
}

const Registry& Registry::global() {
  static const Registry* instance = [] {
    auto* registry = new Registry();
    registry->add(make_table02());
    registry->add(make_table03());
    registry->add(make_table04());
    registry->add(make_fig09());
    registry->add(make_fig10());
    registry->add(make_fig11());
    registry->add(make_fig12());
    registry->add(make_fig13());
    registry->add(make_ablation());
    registry->add(make_compile_time());
    registry->add(make_sim_vs_model());
    return registry;
  }();
  return *instance;
}

Rendered generate(const Artifact& artifact, const Options& options,
                  const RunSpec& run_spec) {
  std::vector<sweep::Result> results;
  for (;;) {
    const std::vector<shard::SweepSpec> specs =
        artifact.plan(options, results);
    if (specs.empty()) break;
    for (const auto& spec : specs) {
      sweep::Result result = run_spec(spec);
      for (const auto& cell : result.cells) {
        // A cell that never ran (a cancelled request's unstarted cells)
        // holds an empty result, which would render as zeros.
        const bool ran = !cell.skipped && !cell.cancelled;
        if (!cell.ok() || !ran) {
          throw ReportError(
              "artifact '" + artifact.name + "' sweep cell " + cell.circuit +
              "/" + cell.technique + "/" + cell.machine +
              (ran ? " failed: " + cell.error : std::string(" did not run")));
        }
      }
      results.push_back(std::move(result));
    }
  }
  return artifact.render(options, results);
}

}  // namespace parallax::report
