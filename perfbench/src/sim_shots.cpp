// sim-shots: set-up compiles parallax-fast schedules with recorded atom
// positions; the measured rounds run single-threaded sim::simulate over
// them. High-survival circuits (WST, QEC, ADV, HLF, SECA) get many shots, so
// the per-shot walk of the draw plan dominates; QV-32 and HSB get few, so
// timeline and draw-plan building dominate. Nothing else exercises src/sim.
#include <cmath>

#include "bench.hpp"
#include "stats.hpp"
#include "bench_circuits/registry.hpp"
#include "noise/model.hpp"
#include "parallax/validate.hpp"
#include "sim/channels.hpp"
#include "sim/event.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace parallax;

namespace {

/// Shots per simulation of a high-survival circuit.
constexpr std::int64_t kShots = 30000;
/// A round's wall on the machine the repetition count was calibrated on.
constexpr double kNominalRoundSeconds = 0.1;

}  // namespace

Outcome run_sim_shots(const RunConfig& run) {
  Outcome out;
  struct Load {
    const char* acronym;
    std::int64_t shots;
  };
  // Short simulations, each repeated many times: a simulation's Envelope
  // piece is its fastest of many draws spread over the whole phase.
  const std::vector<Load> loads =
      run.tiny ? std::vector<Load>{{"HLF", 2000}, {"QAOA", 50}}
               : std::vector<Load>{{"WST", kShots}, {"QEC", kShots},
                                   {"ADV", kShots}, {"HLF", kShots},
                                   {"SECA", kShots}, {"QV", 40},
                                   {"HSB", 40}};
  const std::vector<sweep::MachineSpec> machines = {
      {"quera256", hardware::HardwareConfig::quera_aquila_256()}};
  const hardware::HardwareConfig& config = machines.front().config;

  // One set-up per instance; the rounds cycle over the instances.
  std::vector<sweep::Result> compiled;
  std::vector<std::uint64_t> seeds;
  sweep::Options options;
  options.n_threads = 1;
  options.compile.scheduler.record_positions = true;
  for (std::size_t i = 0; i < kInstances; ++i) {
    const Nanos start = now_ns();
    bench_circuits::GenOptions gen;
    gen.seed = gen_seed(run.seed, i);
    options.compile.seed = compile_seed(run.seed, i);
    std::vector<std::string> acronyms;
    for (const Load& load : loads) acronyms.push_back(load.acronym);
    compiled.push_back(sweep::run(sweep::benchmark_circuits(acronyms, gen),
                                  {"parallax-fast"}, machines, options));
    out.setup_seconds.push_back(seconds_between(start, now_ns()));
    seeds.push_back(options.compile.seed);
    check_cells(compiled.back(), machines, true, out.checks);
    out.quality.add_instance(compiled.back());
  }
  // Ledger invariant E3 (per-layer displacement within the recorded
  // movement budget) fails on about half of the parallax-fast schedules, for
  // every seed tried: atoms move in layers that record no movement. That is
  // a finding against the scheduler or the ledger, not against a run, so E3
  // violations are counted and reported (validate_continuous.e3_violations);
  // every other ledger violation fails the schedule.
  double e3_violations = 0.0;
  for (const sweep::Result& instance : compiled) {
    for (const sweep::Cell& cell : instance.cells) {
      if (!cell.ok()) continue;
      const compiler::ValidationReport report =
          compiler::validate_continuous(cell.result, config);
      for (const std::string& violation : report.violations) {
        if (violation.rfind("E3", 0) == 0) {
          e3_violations += 1.0;
        } else {
          out.checks.fail(cell.circuit + ": validate_continuous: " +
                          violation);
          break;
        }
      }
    }
  }
  out.extra.set("validate_continuous.e3_violations", e3_violations, "count");
  if (out.checks.failed() > 0) return out;

  // Shot streams per (instance, circuit), as the sweep driver derives them.
  std::vector<std::vector<sim::SimOptions>> sims(kInstances);
  for (std::size_t i = 0; i < kInstances; ++i) {
    for (const Load& load : loads) {
      sim::SimOptions sim;
      sim.shots = load.shots;
      sim.seed = util::derive_seed(seeds[i], load.acronym, util::kSimSeedSalt);
      sim.channels = options.noise;
      sim.n_threads = 1;
      sims[i].push_back(sim);
    }
  }

  std::vector<std::vector<util::Digest128>> digests(kInstances);
  std::vector<Envelope> envelopes(kInstances);
  double shots_per_round = 0.0;
  for (const Load& load : loads) {
    shots_per_round += static_cast<double>(load.shots);
  }
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
    const sweep::Result& schedules = compiled[index];
    std::map<std::string, double> layers;
    double spans = 0.0;
    std::vector<double> pieces;
    const Nanos round_start = now_ns();
    for (std::size_t i = 0; i < loads.size(); ++i) {
      const sweep::Cell& cell = schedules.cells[i];
      const sim::SimOptions& sim = sims[index][i];
      if (traced) {
        Nanos start = now_ns();
        const sim::Timeline timeline = sim::build_timeline(cell.result, config);
        const double timeline_seconds = seconds_between(start, now_ns());
        start = now_ns();
        const std::vector<sim::Draw> plan = sim::build_draw_plan(
            cell.result, config, timeline,
            {sim.channels, sim.moving_decoherence_scale});
        const double plan_seconds = seconds_between(start, now_ns());
        layers["sim.timeline_s"] += timeline_seconds;
        layers["sim.draw_plan_s"] += plan_seconds;
        layers["sim.draws"] += static_cast<double>(plan.size());
        spans += timeline_seconds + plan_seconds;
      }
      const Nanos start = now_ns();
      const sim::SurvivalEstimate estimate =
          sim::simulate(cell.result, config, sim);
      const double seconds = seconds_between(start, now_ns());
      spans += seconds;

      out.checks.attempt();
      if (digests[index].size() <= i) {
        digests[index].push_back(estimate.outcome_digest);
        const double p = cell.success_probability;
        const double sigma =
            std::sqrt(p * (1.0 - p) / static_cast<double>(estimate.shots));
        out.checks.expect(
            std::abs(estimate.mean() - p) <= 4.0 * sigma + 1e-12,
            cell.circuit + ": survival " + std::to_string(estimate.mean()) +
                " is more than 4 sigma from the model's " +
                std::to_string(p));
      } else {
        out.checks.expect(estimate.outcome_digest == digests[index][i],
                          cell.circuit + ": shot outcomes differ from the "
                                         "instance's first round");
      }
      if (traced) {
        layers["sim.shot_loop_s"] += seconds;
      } else {
        pieces.push_back(seconds);
      }
    }
    const double wall = seconds_between(round_start, now_ns());
    if (traced) {
      // simulate() builds the timeline and the draw plan itself; the shot
      // loop is what remains of it once the replayed builds are taken out.
      layers["sim.shot_loop_s"] -=
          layers["sim.timeline_s"] + layers["sim.draw_plan_s"];
      layers["trace.unattributed_s"] = wall - spans;
      replay_cells(schedules, machines, options.noise, layers, out.checks);
      out.traced_layers.push_back(std::move(layers));
      out.traced_round_seconds.push_back(wall);
    } else {
      out.round_seconds.push_back(wall);
      pieces.push_back(wall - sum(pieces));
      envelopes[index].observe(pieces);
    }
  }
  // A request is one simulation.
  std::vector<double> instance_walls;
  for (const Envelope& envelope : envelopes) {
    const std::vector<double>& best = envelope.pieces();
    if (best.empty()) continue;
    instance_walls.push_back(envelope.total());
    out.request_seconds.insert(out.request_seconds.end(), best.begin(),
                               best.end() - 1);
  }
  out.wall_seconds = mean(instance_walls);
  out.cells_per_second = static_cast<double>(loads.size()) / out.wall_seconds;
  out.extra.set("shots_per_s", shots_per_round / out.wall_seconds, "shots/s");
  out.meta.emplace_back("sim_threads", "1");
  return out;
}

}  // namespace perfbench
