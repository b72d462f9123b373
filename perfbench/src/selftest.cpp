// Self-tests of the benchmark's own arithmetic and plumbing: the tail
// percentile rule, self time on synthetic spans, the metric-name rule, the
// tracing registry's byte identity, and a smoke run of every workload at
// tiny scale, untraced and traced.
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_circuits/registry.hpp"
#include "report.hpp"
#include "shard/shard.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::fprintf(stderr, "  %s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> samples;
  for (std::size_t i = n; i > 0; --i) samples.push_back(static_cast<double>(i));
  return samples;
}

void test_tail_rule() {
  // n samples 1..n: the tail is the eleventh-largest, n - 10, which leaves
  // exactly ten beyond it.
  Tail t = tail(ramp(1000));
  expect(t.percentile == 99.0 && t.value == 990.0, "tail of 1000 is p99 = 990");
  t = tail(ramp(200));
  expect(t.percentile == 95.0 && t.value == 190.0, "tail of 200 is p95 = 190");
  t = tail(ramp(90));
  expect(std::abs(t.percentile - 800.0 / 9.0) < 1e-9 && t.value == 80.0,
         "tail of 90 is p88.9 = 80");
  t = tail(ramp(20));
  expect(t.percentile == 50.0 && t.value == 10.0, "tail of 20 is p50 = 10");
  t = tail(ramp(19));
  expect(t.percentile == 50.0 && t.value == 10.0,
         "tail of 19 falls back to the median");
  expect(median({3.0, 1.0, 2.0, 10.0}) == 2.5, "median averages the middle");
  expect(mean({3.0, 1.0, 2.0, 10.0}) == 4.0, "mean");
}

void test_self_time() {
  // parent [0, 100); children overlap and overhang: [10,30) [20,50) [60,70)
  // [90,120) cover 40 + 10 + 10 of it.
  std::vector<Span> spans = {{"root", 0, 100, "", -1},
                             {"a", 10, 30, "", 0},
                             {"b", 20, 50, "", 0},
                             {"c", 60, 70, "", 0},
                             {"d", 90, 120, "", 0},
                             {"e", 12, 18, "", 1}};
  const std::vector<double> self = self_seconds(spans);
  expect(std::llround(self[0] * 1e9) == 40, "self time subtracts the union");
  expect(std::llround(self[1] * 1e9) == 14, "nested child covers its parent");
  expect(std::llround(self[3] * 1e9) == 10, "leaf self time is its duration");
  // Closure: a parent's self time plus its children's clipped union is its
  // duration.
  double children = 0.0;
  for (std::size_t i = 1; i <= 4; ++i) children += spans[i].seconds();
  expect(std::llround(children * 1e9) == 90,
         "synthetic children sum (with overlap) is 90ns");
}

void test_metric_names() {
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& spec : *list) {
      expect(valid_metric_name(spec.name) && valid_unit(spec.unit),
             std::string("metric name and unit valid: ") + spec.name);
    }
  }
  expect(!valid_metric_name(".x") && !valid_metric_name("a b") &&
             !valid_metric_name(std::string(65, 'a')) &&
             valid_metric_name("parallax.schedule_s"),
         "metric-name rule rejects bad names");
  expect(!valid_unit("") && !valid_unit("ms ") && valid_unit("cells/s") &&
             valid_unit("%"),
         "unit rule");
  std::vector<std::string> seen;
  bool unique = true;
  for (const auto* list : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricSpec& spec : *list) {
      for (const std::string& name : seen) unique = unique && name != spec.name;
      seen.emplace_back(spec.name);
    }
  }
  expect(unique, "metric names are used once");
}

void test_tracing_registry() {
  using namespace parallax;
  const technique::Registry& plain = technique::Registry::global();
  const auto tracer = std::make_shared<Tracer>();
  const technique::Registry traced = tracing_registry(plain, tracer);
  bool same_passes = plain.names() == traced.names();
  for (const std::string& name : plain.names()) {
    same_passes = same_passes && plain.make_pipeline(name).pass_names() ==
                                     traced.make_pipeline(name).pass_names();
  }
  expect(same_passes, "tracing registry keeps names and pass lists");

  bench_circuits::GenOptions gen;
  const std::vector<sweep::CircuitSpec> circuits =
      sweep::benchmark_circuits({"ADD", "HLF"}, gen);
  const std::vector<std::string> techniques = {"parallax", "parallax-fast",
                                               "eldi", "graphine"};
  const std::vector<sweep::MachineSpec> machines = paper_machines();
  sweep::Options options;
  options.n_threads = 1;
  const std::string plain_bytes = shard::canonical_bytes(
      sweep::run(circuits, techniques, machines, options, plain));
  const SweepRound round = sweep_round(circuits, techniques, machines,
                                       options, traced, tracer);
  expect(shard::canonical_bytes(round.result) == plain_bytes,
         "traced sweep bytes equal untraced");
  std::size_t passes = 0;
  std::size_t cells = 0;
  bool parented = true;
  for (const Span& span : round.spans) {
    if (span.name == "cell") ++cells;
    if (span.name != "cell" && span.name != "sweep.run") {
      ++passes;
      parented = parented && span.parent > 0;
    }
  }
  expect(cells == round.result.cells.size(), "one cell span per cell");
  expect(passes > 0 && parented, "every pass span has a parent cell");
  std::map<std::string, double> layers;
  add_sweep_layers(round, layers);
  double attributed = 0.0;
  for (const auto& [name, seconds] : layers) attributed += seconds;
  expect(std::abs(attributed - round.seconds()) < 1e-6,
         "pass spans plus sweep.overhead_s close on the sweep wall");
}

void test_smoke() {
  for (const std::string& workload : workload_names()) {
    for (const bool trace : {false, true}) {
      RunConfig run;
      run.workload = workload;
      run.seed = 7;
      run.seconds = 0.2;
      run.trace = trace;
      run.tiny = true;
      run.workdir = "smoke-" + workload + (trace ? "-traced" : "");
      std::filesystem::create_directories(run.workdir);
      std::string what = "smoke " + workload + (trace ? " traced" : "");
      try {
        const Outcome outcome = run_workload(run);
        const RunResult result = assemble(run, outcome);
        for (const std::string& message : outcome.checks.messages()) {
          std::fprintf(stderr, "    %s\n", message.c_str());
        }
        const auto& specs = trace ? per_layer_metrics() : end_to_end_metrics();
        bool complete = result.metrics.items().size() == specs.size();
        expect(result.correct && complete, what);
      } catch (const std::exception& error) {
        expect(false, what + ": " + error.what());
      }
      std::filesystem::remove_all(run.workdir);
    }
  }
}

}  // namespace

int self_test() {
  test_tail_rule();
  test_self_time();
  test_metric_names();
  test_tracing_registry();
  test_smoke();
  std::fprintf(stderr, "perfbench self-test: %s (%d failed)\n",
               failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace perfbench
