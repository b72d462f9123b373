#include "report.hpp"

#include <cmath>
#include <map>
#include <stdexcept>
#include <thread>

#include "anneal/kernels.hpp"
#include "stats.hpp"
#include "util/json.hpp"

namespace perfbench {

using parallax::util::JsonValue;

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> kMetrics = {
      {"setup_s", "s"},
      {"wall_s", "s"},
      {"cells_per_s", "cells/s"},
      {"request_p50_ms", "ms"},
      {"request_tail_ms", "ms"},
      {"peak_rss_mb", "MB"},
      {"effective_cz", "count"},
      {"trap_changes", "count"},
      {"success_geomean", "prob"},
      {"circuit_runtime_ms", "ms"},
  };
  return kMetrics;
}

namespace {

struct LayerSpec {
  const char* name;
  const char* unit;
  /// Measured by every workload's traced run, so it is in per_layer.
  bool every_workload;
};

/// Every per-layer value a traced run can report, with its unit.
const std::vector<LayerSpec>& layer_table() {
  static const std::vector<LayerSpec> kLayers = {
      {"noise.success_probability_s", "s", true},
      {"shard.codec_s", "s", true},
      {"trace.unattributed_s", "s", true},
      {"trace.overhead_ratio", "ratio", true},
      {"qasm.parse_s", "s", false},
      {"qasm.mb_per_s", "MB/s", false},
      {"circuit.transpile_s", "s", false},
      {"placement.graphine_s", "s", false},
      {"placement.discretize_s", "s", false},
      {"placement.anneals", "count", false},
      {"placement.evaluations", "count", false},
      {"placement.delta_evaluations", "count", false},
      {"baselines.eldi_placement_s", "s", false},
      {"baselines.swap_route_s", "s", false},
      {"baselines.static_schedule_s", "s", false},
      {"baselines.identity_placement_s", "s", false},
      {"parallax.aod_selection_s", "s", false},
      {"parallax.schedule_s", "s", false},
      {"parallax.layers", "count", false},
      {"parallax.aod_moves", "count", false},
      {"sweep.overhead_s", "s", false},
      {"cache.result_hits", "count", false},
      {"cache.result_misses", "count", false},
      {"cache.memory_hits", "count", false},
      {"cache.disk_hits", "count", false},
      {"cache.stores", "count", false},
      {"cache.bytes_read", "bytes", false},
      {"cache.bytes_written", "bytes", false},
      {"cache.get_result_s", "s", false},
      {"serve.first_cell_ms_p50", "ms", false},
      {"serve.overhead_s", "s", false},
      {"sim.timeline_s", "s", false},
      {"sim.draw_plan_s", "s", false},
      {"sim.shot_loop_s", "s", false},
      {"sim.draws", "count", false},
  };
  return kLayers;
}

}  // namespace

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> kMetrics = [] {
    std::vector<MetricSpec> metrics;
    for (const LayerSpec& layer : layer_table()) {
      if (layer.every_workload) metrics.push_back({layer.name, layer.unit});
    }
    return metrics;
  }();
  return kMetrics;
}

namespace {

const char* layer_unit(const std::string& name) {
  for (const LayerSpec& layer : layer_table()) {
    if (name == layer.name) return layer.unit;
  }
  throw std::invalid_argument("layer metric '" + name +
                              "' is not in the layer table");
}

JsonValue metrics_json(const MetricSet& set) {
  JsonValue object = JsonValue::object();
  for (const Metric& metric : set.items()) {
    JsonValue entry = JsonValue::object();
    entry["value"] = metric.value;
    entry["unit"] = metric.unit;
    object[metric.name] = std::move(entry);
  }
  return object;
}

}  // namespace

RunResult assemble(const RunConfig& run, const Outcome& outcome) {
  RunResult result;
  result.attempted = outcome.checks.attempted();
  result.failed = outcome.checks.failed();

  std::map<std::string, std::vector<double>> per_name;
  for (const auto& round : outcome.traced_layers) {
    for (const auto& [name, value] : round) per_name[name].push_back(value);
  }
  for (const auto& [name, values] : per_name) {
    result.layers.set(name, median(values), layer_unit(name));
  }
  const double untraced_wall = outcome.wall_seconds;
  const double traced_wall = median(outcome.traced_round_seconds);
  if (run.trace && !outcome.round_seconds.empty()) {
    // Like for like: the median traced round over the median untraced one.
    result.layers.set("trace.overhead_ratio",
                      traced_wall / median(outcome.round_seconds), "ratio");
  }

  MetricSet e2e;
  e2e.set("setup_s", median(outcome.setup_seconds), "s");
  e2e.set("wall_s", untraced_wall, "s");
  e2e.set("cells_per_s", outcome.cells_per_second, "cells/s");
  e2e.set("request_p50_ms", median(outcome.request_seconds) * 1e3, "ms");
  const Tail request_tail = tail(outcome.request_seconds);
  e2e.set("request_tail_ms", request_tail.value * 1e3, "ms");
  e2e.set("peak_rss_mb", peak_rss_mb(), "MB");
  const Quality& quality = outcome.quality;
  e2e.set("effective_cz", quality.per_instance(quality.effective_cz), "count");
  e2e.set("trap_changes", quality.per_instance(quality.trap_changes), "count");
  e2e.set("success_geomean", quality.success_geomean(), "prob");
  e2e.set("circuit_runtime_ms", quality.per_instance(quality.runtime_us) * 1e-3,
          "ms");

  result.extra = outcome.extra;
  for (const Metric& metric : e2e.items()) {
    result.extra.set(metric.name, metric.value, metric.unit);
  }
  result.extra.set("request_tail_percentile", request_tail.percentile, "%");
  result.extra.set("request_samples",
                   static_cast<double>(outcome.request_seconds.size()),
                   "count");
  result.extra.set("rounds", static_cast<double>(outcome.round_seconds.size()),
                   "count");
  result.extra.set("traced_rounds",
                   static_cast<double>(outcome.traced_round_seconds.size()),
                   "count");
  result.extra.set("failure_ratio",
                   result.attempted == 0
                       ? 1.0
                       : static_cast<double>(result.failed) /
                             static_cast<double>(result.attempted),
                   "failed/attempted");

  bool finite = true;
  if (run.trace) {
    // Every listed layer is measured on every workload: a missing or zero
    // value means the traced run did not measure it.
    for (const MetricSpec& spec : per_layer_metrics()) {
      const Metric* metric = result.layers.find(spec.name);
      finite = finite && metric != nullptr && std::isfinite(metric->value) &&
               metric->value > 0.0;
      result.metrics.set(spec.name, metric == nullptr ? 0.0 : metric->value,
                         spec.unit);
    }
  } else {
    for (const MetricSpec& spec : end_to_end_metrics()) {
      const Metric* metric = e2e.find(spec.name);
      finite = finite && metric != nullptr && std::isfinite(metric->value) &&
               metric->value > 0.0;
      result.metrics.set(spec.name, metric == nullptr ? 0.0 : metric->value,
                         spec.unit);
    }
  }
  result.correct = result.failed == 0 && result.attempted > 0 && finite &&
                   !outcome.round_seconds.empty() &&
                   (!run.trace || !outcome.traced_layers.empty());
  return result;
}

std::string report_line(const RunConfig& run, const Outcome& outcome,
                        const RunResult& result) {
  JsonValue report = JsonValue::object();
  report["workload"] = run.workload;
  report["seed"] = std::to_string(run.seed);
  report["seconds"] = run.seconds;
  report["trace"] = run.trace;
  JsonValue meta = JsonValue::object();
  meta["compiler"] = std::string(__VERSION__);
#ifdef NDEBUG
  meta["assertions"] = "off";
#else
  meta["assertions"] = "on";
#endif
  meta["anneal_lane"] = parallax::anneal::kernels::lane_name(
      parallax::anneal::kernels::active_lane());
  meta["hardware_concurrency"] =
      static_cast<std::size_t>(std::thread::hardware_concurrency());
  for (const auto& [key, value] : outcome.meta) meta[key] = value;
  report["meta"] = std::move(meta);
  report["end_to_end"] = metrics_json(result.extra);
  report["layers"] = metrics_json(result.layers);
  JsonValue samples = JsonValue::object();
  for (const auto& [key, values] :
       {std::pair{"setup_seconds", &outcome.setup_seconds},
        std::pair{"round_seconds", &outcome.round_seconds},
        std::pair{"traced_round_seconds", &outcome.traced_round_seconds}}) {
    JsonValue list = JsonValue::array();
    for (const double value : *values) list.push_back(value);
    samples[key] = std::move(list);
  }
  report["samples"] = std::move(samples);
  report["attempted"] = static_cast<std::size_t>(result.attempted);
  report["failed"] = static_cast<std::size_t>(result.failed);
  JsonValue failures = JsonValue::array();
  for (const std::string& message : outcome.checks.messages()) {
    failures.push_back(message);
  }
  report["failures"] = std::move(failures);
  JsonValue line = JsonValue::object();
  line["report"] = std::move(report);
  return line.dump(-1);
}

std::string result_line(const RunResult& result) {
  JsonValue line = JsonValue::object();
  line["correct"] = result.correct;
  line["attempted"] = static_cast<std::size_t>(result.attempted);
  line["failed"] = static_cast<std::size_t>(result.failed);
  line["metrics"] = metrics_json(result.metrics);
  return line.dump(-1);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> kNames = {
      "paper-suite", "warm-serve", "sim-shots"};
  return kNames;
}

Outcome run_workload(const RunConfig& run) {
  if (run.workload == "paper-suite") return run_paper_suite(run);
  if (run.workload == "warm-serve") return run_warm_serve(run);
  if (run.workload == "sim-shots") return run_sim_shots(run);
  throw std::invalid_argument("unknown workload '" + run.workload + "'");
}

}  // namespace perfbench
