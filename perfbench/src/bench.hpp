// Shared vocabulary of the workloads: run configuration, metric sets, output
// checks, quality totals, and the reductions every workload applies to its
// rounds.
#pragma once

#include <cstdint>
#include <filesystem>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "hardware/config.hpp"
#include "parallax/result.hpp"
#include "sweep/sweep.hpp"
#include "trace.hpp"
#include "util/hash.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  /// Nominal length of the measured phase: it sets the phase's fixed
  /// repetition count (see repetitions()).
  double seconds = 10.0;
  /// Traced run: rounds alternate untraced/traced and per-layer metrics are
  /// reported instead of end-to-end ones.
  bool trace = false;
  /// Smoke scale for the self-tests: a few small circuits, a short phase.
  bool tiny = false;
  /// Per-run scratch directory (cache directories, the serve socket). The
  /// caller creates it and removes it on every exit path.
  std::filesystem::path workdir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Named values in insertion order; setting a name twice replaces it.
class MetricSet {
 public:
  void set(const std::string& name, double value, const std::string& unit);
  [[nodiscard]] const Metric* find(std::string_view name) const;
  [[nodiscard]] const std::vector<Metric>& items() const noexcept {
    return items_;
  }

 private:
  std::vector<Metric> items_;
};

/// Operations attempted and failed. An operation (a compiled or served cell,
/// a served request, a simulation) fails when any check on its output fails.
class Checks {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  /// Counts one failed operation and keeps the first messages for the log.
  void fail(const std::string& what);
  /// fail(what) unless `ok`; returns `ok`.
  bool expect(bool ok, const std::string& what) {
    if (!ok) fail(what);
    return ok;
  }
  /// Adds another tally (a client thread's) to this one.
  void merge(const Checks& other);
  [[nodiscard]] std::uint64_t attempted() const noexcept { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  [[nodiscard]] const std::vector<std::string>& messages() const noexcept {
    return messages_;
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

/// Output quality of the Parallax-family cells (paper Fig. 9, Fig. 10,
/// Table IV and the trap-change count), over the workload's first
/// kInstances input instances. Deterministic for a given seed.
struct Quality {
  /// Totals over every added instance.
  double effective_cz = 0.0;
  double trap_changes = 0.0;
  double runtime_us = 0.0;
  double log_success_sum = 0.0;
  std::size_t results = 0;
  std::size_t instances = 0;

  void add(const parallax::compiler::CompileResult& result,
           double success_probability);
  /// Adds the Parallax-family cells of one instance's compiled matrix.
  void add_instance(const parallax::sweep::Result& result);
  /// A total as its mean per instance.
  [[nodiscard]] double per_instance(double total) const;
  [[nodiscard]] double success_geomean() const;
};

/// "parallax" and its tuned variants: the techniques the quality metrics and
/// the zero-SWAP schedule checks cover.
[[nodiscard]] bool parallax_family(std::string_view technique);

/// Everything a workload measured; main() turns it into the result line.
struct Outcome {
  std::vector<double> setup_seconds;
  /// Untraced rounds: one unit of the workload's work each.
  std::vector<double> round_seconds;
  /// wall_s: the mean, over instances (warm-serve: clients), of the
  /// Envelope total of a round. A mean, not a median: instances differ in
  /// cost by design, and the mean averages that spread where the median
  /// jumps between them from seed to seed.
  double wall_seconds = 0.0;
  /// One figure per distinct request, each its Envelope over the request's
  /// repeats: a served SUBMIT on warm-serve, one instance's whole job on
  /// paper-suite, one simulation on sim-shots.
  std::vector<double> request_seconds;
  double cells_per_second = 0.0;
  Quality quality;

  /// Per-layer values of each traced round, and the traced rounds' walls.
  std::vector<std::map<std::string, double>> traced_layers;
  std::vector<double> traced_round_seconds;
  /// Workload-specific report values (reported, not part of the result).
  MetricSet extra;
  Checks checks;
  std::vector<std::pair<std::string, std::string>> meta;
};

[[nodiscard]] Outcome run_paper_suite(const RunConfig& run);
[[nodiscard]] Outcome run_warm_serve(const RunConfig& run);
[[nodiscard]] Outcome run_sim_shots(const RunConfig& run);

// --- helpers shared by the workloads -----------------------------------------

/// A workload seed expands into input instances: instance i has its own
/// circuits (GenOptions::seed) and compile seed (CompileOptions::seed).
/// Compile cost and output quality vary a lot from one instance to the next
/// (QV-32 alone moves the suite's trap changes by a third), so a run
/// measures several instances and its figures describe the population, not
/// one draw. Set-up prepares each instance once (the median is reported);
/// the rounds cycle over them; the quality metrics average over them.
inline constexpr std::size_t kInstances = 5;

/// Contention from other tenants of the machine only ever slows work down,
/// in bursts that can double it for seconds at a time. Every workload
/// therefore times its work by the lower envelope of a fixed number of
/// repetitions: each piece of a round (a cell, a request, a simulation, the
/// glue around them) at its fastest over its repeats, summed. The repeat
/// count is the same on every commit (repetitions()), so the order
/// statistic is too: a faster change is not also credited with more draws.
class Envelope {
 public:
  /// One repetition's times, one per piece, in the same order every time.
  void observe(const std::vector<double>& pieces);
  /// Each piece at its minimum so far.
  [[nodiscard]] const std::vector<double>& pieces() const noexcept {
    return best_;
  }
  [[nodiscard]] double total() const;

 private:
  std::vector<double> best_;
};

/// The fixed repetition count of a measured phase: the number of
/// repetitions of `nominal_seconds` each (their length on the machine the
/// benchmark was calibrated on) that fill --seconds, at least `minimum`. It
/// depends on --seconds only, never on how fast the code runs.
[[nodiscard]] std::size_t repetitions(const RunConfig& run,
                                      double nominal_seconds,
                                      std::size_t minimum);

/// The measured phase may overrun --seconds (a slower commit, a slow
/// machine), but not without limit: past this point, reckoned from the
/// phase's start, it stops and the run fails as incomplete.
[[nodiscard]] Nanos phase_cap(const RunConfig& run, Nanos phase_start);
/// Counts the incomplete phase as a failed operation.
void fail_incomplete(Checks& checks, std::size_t done, std::size_t planned);

[[nodiscard]] std::uint64_t gen_seed(std::uint64_t workload_seed,
                                     std::size_t instance);
[[nodiscard]] std::uint64_t compile_seed(std::uint64_t workload_seed,
                                         std::size_t instance);

/// The paper-suite matrix: its techniques and its circuits (all 18 Table III
/// benchmarks, reduced-depth VQE; three small ones at smoke scale).
[[nodiscard]] std::vector<std::string> paper_suite_techniques();
[[nodiscard]] std::vector<parallax::sweep::CircuitSpec> paper_suite_circuits(
    const RunConfig& run, std::size_t instance);

/// quera256 and atom1225 (paper Table II).
[[nodiscard]] std::vector<parallax::sweep::MachineSpec> paper_machines();

/// Peak resident set of this process so far, in MB.
[[nodiscard]] double peak_rss_mb();

/// Digest of shard::canonical_bytes: what the repeat checks compare, kept
/// instead of the bytes so the benchmark's own memory stays out of
/// peak_rss_mb.
[[nodiscard]] parallax::util::Digest128 canonical_digest(
    const parallax::sweep::Result& result);
/// canonical_digest of a result holding only `cell`.
[[nodiscard]] parallax::util::Digest128 cell_digest(
    const parallax::sweep::Cell& cell);

/// Checks every cell of `result`: compiled without error, and (when
/// `validate`) Parallax-family schedules pass compiler::validate_schedule
/// with zero SWAPs. Counts one attempted operation per cell.
void check_cells(const parallax::sweep::Result& result,
                 const std::vector<parallax::sweep::MachineSpec>& machines,
                 bool validate, Checks& checks);

/// Compares each cell's canonical digest against the reference round's and
/// counts a failure per differing cell (outputs must repeat exactly, traced
/// or not).
void check_repeat(const std::vector<parallax::util::Digest128>& reference,
                  const parallax::sweep::Result& result, Checks& checks);

/// One sweep::run, optionally traced: the result, its wall, and (traced) the
/// span tree sweep.run -> cell -> pass. Transpilation and Graphine placement
/// run in the sweep driver's memo ahead of the pipeline, where no pass
/// wrapper sees them; their spans come from the cell's pass_timings, which
/// the driver fills with what it paid for them.
struct SweepRound {
  parallax::sweep::Result result;
  Nanos start = 0;
  Nanos end = 0;
  std::vector<Span> spans;
  [[nodiscard]] double seconds() const { return seconds_between(start, end); }
};
[[nodiscard]] SweepRound sweep_round(
    const std::vector<parallax::sweep::CircuitSpec>& circuits,
    const std::vector<std::string>& techniques,
    const std::vector<parallax::sweep::MachineSpec>& machines,
    parallax::sweep::Options options,
    const parallax::technique::Registry& registry,
    const std::shared_ptr<Tracer>& tracer);

/// Layer times of one traced sweep round: every pass metric, plus
/// sweep.overhead_s (sweep.run self time plus cell self time: memo and
/// cache lookups, success probability, cache writes, dispatch).
void add_sweep_layers(const SweepRound& round,
                      std::map<std::string, double>& layers);

/// Work counters of one sweep round: anneals, Parallax layer and AOD move
/// totals.
void add_sweep_counters(const parallax::sweep::Result& result,
                        std::map<std::string, double>& layers);

/// Replays noise::success_probability over the cells (noise.success_
/// probability_s) and checks each replay equals the cell's value; replays
/// shard::encode_cell + decode_cell (shard.codec_s).
void replay_cells(const parallax::sweep::Result& result,
                  const std::vector<parallax::sweep::MachineSpec>& machines,
                  const parallax::noise::NoiseOptions& noise,
                  std::map<std::string, double>& layers, Checks& checks);

/// Result-cache keys of every cell, derived as the sweep driver derives
/// them: tuned options, the transpiled circuit's fingerprint, the pass list.
[[nodiscard]] std::vector<parallax::cache::Digest128> result_keys(
    const std::vector<parallax::sweep::CircuitSpec>& circuits,
    const std::vector<std::string>& techniques,
    const std::vector<parallax::sweep::MachineSpec>& machines,
    const parallax::sweep::Options& options,
    const parallax::technique::Registry& registry);

/// Adds CompilationCache::stats() counters as cache.* layer values.
void add_cache_layers(const parallax::cache::CacheStats& stats,
                      std::map<std::string, double>& layers);

/// Alternation of untraced and traced rounds in a traced run: a traced run
/// has the same rounds as an untraced one, every second of them traced.
[[nodiscard]] inline bool traced_round(const RunConfig& run,
                                       std::size_t round) {
  return run.trace && round % 2 == 1;
}

}  // namespace perfbench
