// perfbench: the repository benchmark. One invocation runs one workload in
// its own process and prints, as its last two stdout lines, a report (all
// values, metadata, failures) and the result line the benchmark contract
// defines. See perfbench/README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --workdir <dir> [--tiny]
//   perfbench --self-test --workdir <dir>
//   perfbench --list-metrics
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>

#include "report.hpp"
#include "util/json.hpp"

namespace {

std::uint64_t parse_seed(const std::string& text) {
  std::size_t used = 0;
  const unsigned long long value = std::stoull(text, &used, 10);
  if (used != text.size() || text.front() == '-') {
    throw std::invalid_argument("--seed takes an unsigned integer");
  }
  return value;
}

double parse_seconds(const std::string& text) {
  std::size_t used = 0;
  const double value = std::stod(text, &used);
  if (used != text.size()) throw std::invalid_argument("bad --seconds");
  return value;
}

int usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> --workdir <dir> [--tiny]\n"
               "       perfbench --self-test --workdir <dir>\n"
               "       perfbench --list-metrics\n",
               message);
  return 2;
}

void list_metrics() {
  using parallax::util::JsonValue;
  JsonValue out = JsonValue::object();
  for (const auto& [key, specs] :
       {std::pair{"end_to_end", &perfbench::end_to_end_metrics()},
        std::pair{"per_layer", &perfbench::per_layer_metrics()}}) {
    JsonValue list = JsonValue::array();
    for (const perfbench::MetricSpec& spec : *specs) {
      JsonValue entry = JsonValue::array();
      entry.push_back(spec.name);
      entry.push_back(spec.unit);
      list.push_back(std::move(entry));
    }
    out[key] = std::move(list);
  }
  JsonValue workloads = JsonValue::array();
  for (const std::string& name : perfbench::workload_names()) {
    workloads.push_back(name);
  }
  out["workloads"] = std::move(workloads);
  std::cout << out.dump(-1) << '\n';
}

void print_summary(const perfbench::RunConfig& run,
                   const perfbench::RunResult& result) {
  std::fprintf(stderr, "perfbench %s seed=%llu trace=%d: %s (%llu/%llu failed)\n",
               run.workload.c_str(), static_cast<unsigned long long>(run.seed),
               run.trace ? 1 : 0, result.correct ? "correct" : "NOT CORRECT",
               static_cast<unsigned long long>(result.failed),
               static_cast<unsigned long long>(result.attempted));
  const auto print = [](const char* title, const perfbench::MetricSet& set) {
    std::fprintf(stderr, "  %s\n", title);
    for (const perfbench::Metric& metric : set.items()) {
      std::fprintf(stderr, "    %-34s %16.6g %s\n", metric.name.c_str(),
                   metric.value, metric.unit.c_str());
    }
  };
  print("end to end", result.extra);
  if (run.trace) print("layers (median over traced rounds)", result.layers);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig run;
  bool self_test = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto value = [&]() -> std::string {
        if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--workload") {
        run.workload = value();
      } else if (arg == "--seed") {
        run.seed = parse_seed(value());
        have_seed = true;
      } else if (arg == "--seconds") {
        run.seconds = parse_seconds(value());
        have_seconds = true;
      } else if (arg == "--trace") {
        const std::string trace = value();
        if (trace != "0" && trace != "1") {
          throw std::invalid_argument("--trace takes 0 or 1");
        }
        run.trace = trace == "1";
        have_trace = true;
      } else if (arg == "--workdir") {
        run.workdir = value();
      } else if (arg == "--tiny") {
        run.tiny = true;
      } else if (arg == "--self-test") {
        self_test = true;
      } else if (arg == "--list-metrics") {
        list_metrics();
        return 0;
      } else {
        throw std::invalid_argument("unknown argument " + arg);
      }
    }
  } catch (const std::exception& error) {
    return usage(error.what());
  }
  if (run.workdir.empty()) return usage("--workdir is required");
  // Everything the run writes (cache directories, the serve socket) lives
  // under the work directory, addressed relative to it: the socket path
  // then stays short whatever the work directory's own path is.
  std::error_code ec;
  std::filesystem::create_directories(run.workdir, ec);
  std::filesystem::current_path(run.workdir, ec);
  if (ec) return usage(("cannot enter --workdir: " + ec.message()).c_str());
  run.workdir = ".";
  if (self_test) return perfbench::self_test();

  if (!have_seed || !have_seconds || !have_trace || run.workload.empty()) {
    return usage("--workload, --seed, --seconds and --trace are required");
  }
  if (!(run.seconds > 0.0 && run.seconds <= 600.0)) {
    return usage("--seconds must be in (0, 600]");
  }
  try {
    const perfbench::Outcome outcome = perfbench::run_workload(run);
    const perfbench::RunResult result = perfbench::assemble(run, outcome);
    print_summary(run, result);
    for (const std::string& message : outcome.checks.messages()) {
      std::fprintf(stderr, "  check failed: %s\n", message.c_str());
    }
    std::cout << perfbench::report_line(run, outcome, result) << '\n'
              << perfbench::result_line(result) << std::endl;
    return result.correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", run.workload.c_str(),
                 error.what());
    return 1;
  }
}
