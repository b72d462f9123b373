// parallax_cli — the command-line front end for the compiler library:
// compile mode plus the import, cache, shard, serve, bench and sim
// commands. Two tables are the only description of the command line:
// kFlags (every option, its value placeholder, and where its value lands)
// and kCommands (the words that select a command, the flags it takes, its
// cross-flag rules, and its handler). The parser, the allowlists, the
// required-flag checks, dispatch and `parallax_cli --help` all read them.
#include <signal.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <tuple>
#include <utility>
#include <vector>

#include "bench_circuits/registry.hpp"
#include "cache/cache.hpp"
#include "hardware/config.hpp"
#include "hardware/render.hpp"
#include "import/manifest.hpp"
#include "noise/model.hpp"
#include "parallax/report.hpp"
#include "parallax/validate.hpp"
#include "qasm/parser.hpp"
#include "qasm/writer.hpp"
#include "report/orchestrator.hpp"
#include "report/runner.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "shard/shard.hpp"
#include "sim/simulator.hpp"
#include "sweep/sweep.hpp"
#include "technique/registry.hpp"
#include "util/json.hpp"
#include "util/parse.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"

namespace {

struct Command;

struct Cli {
  const char* argv0 = "parallax_cli";
  const Command* command = nullptr;
  std::string benchmark;
  std::string circuit_file;
  std::string import_manifest;  // --import MANIFEST circuit axis
  std::string machine = "quera256";
  std::string technique;  // the command's default until --technique
  std::int32_t aod_count = 20;
  bool home_return = true;
  double spread = 2.0;
  std::int32_t window = 0;  // --window N placement cap (0 = off)
  std::uint64_t seed = 42;
  std::size_t threads = 0;
  bool json = false;
  bool layers = false;
  bool render = false;
  bool list_techniques = false;
  std::string export_qasm;
  bool use_cache = true;
  std::string cache_dir;  // empty => cache::default_directory()
  std::uint64_t max_disk_bytes = 0;
  std::string benchmarks_csv;
  std::uint32_t shards = 0;
  std::string out_dir;
  std::string spec_file;
  std::string out_file;
  std::string origin;
  bool shots = false;            // shard plan / serve spec: parallel shots
  std::int64_t sim_shots = 4096;  // sim: Monte Carlo shot count
  std::string socket_path;
  std::uint64_t max_inflight = 0;      // 0 => ServerOptions default
  std::uint64_t max_client_bytes = 0;  // 0 => ServerOptions default
  std::string manifest_out;            // import --manifest OUT
  std::string format = "table";
  bool all_artifacts = false;
  bool list_artifacts = false;
  bool full_scale = false;
  std::vector<std::string> inputs;  // positional arguments
  /// The last value each given flag took (nullptr for a switch).
  std::map<std::string_view, const char*> given;
};

[[noreturn]] void usage(const char* argv0, const std::string& error = {});

[[noreturn]] void reject(const Cli& cli, const std::string& error) {
  usage(cli.argv0, error);
}

// --- the flag table ----------------------------------------------------------

// Flag setters: where a value lands, after which check. Parsing is strict
// (util/parse.hpp): `--aod-count banana` is a reported error naming the
// flag, never std::atoi's silent 0.
std::uint64_t u64_value(const Cli& cli, const char* flag,
                        const char* value) {
  const auto parsed = parallax::util::parse_u64(value);
  if (!parsed) {
    reject(cli, std::string(flag) + " expects a non-negative integer, got '" +
                    value + "'");
  }
  return *parsed;
}

template <auto field>
void set_text(Cli& cli, const char*, const char* value) {
  cli.*field = value;
}

template <auto field, bool on>
void set_switch(Cli& cli, const char*, const char*) {
  cli.*field = on;
}

template <auto field>
void set_u64(Cli& cli, const char* flag, const char* value) {
  cli.*field = u64_value(cli, flag, value);
}

template <auto field>
void set_positive_i32(Cli& cli, const char* flag, const char* value) {
  const auto parsed = parallax::util::parse_i32(value);
  if (!parsed || *parsed <= 0) {
    reject(cli, std::string(flag) + " expects a positive integer, got '" +
                    value + "'");
  }
  cli.*field = *parsed;
}

template <auto field>
void set_positive_f64(Cli& cli, const char* flag, const char* value) {
  const auto parsed = parallax::util::parse_f64(value);
  if (!parsed || !(*parsed > 0.0)) {
    reject(cli, std::string(flag) + " expects a positive number, got '" +
                    value + "'");
  }
  cli.*field = *parsed;
}

/// util::ThreadPool starts every worker it is asked for, and a thread the
/// system refuses aborts the process, so the count is capped here.
void set_threads(Cli& cli, const char* flag, const char* value) {
  const std::uint64_t n = u64_value(cli, flag, value);
  if (n > 1024) reject(cli, "--threads must be in [0, 1024]");
  cli.threads = static_cast<std::size_t>(n);
}

void set_shards(Cli& cli, const char* flag, const char* value) {
  const std::uint64_t n = u64_value(cli, flag, value);
  if (n == 0 || n > (1u << 20)) reject(cli, "--shards must be in [1, 1048576]");
  cli.shards = static_cast<std::uint32_t>(n);
}

void set_sim_shots(Cli& cli, const char* flag, const char* value) {
  cli.sim_shots = static_cast<std::int64_t>(u64_value(cli, flag, value));
  if (cli.sim_shots <= 0) reject(cli, "--shots expects a positive shot count");
}

struct Flag {
  std::string_view name;
  const char* meta;  // the value placeholder; nullptr for a switch
  /// Stores the value (nullptr for a switch), rejecting a malformed one.
  void (*set)(Cli&, const char* flag, const char* value);
  /// When set, the row applies only to the command with these words.
  std::string_view only = {};
};

const Flag kFlags[] = {
    {"--benchmark", "NAME", set_text<&Cli::benchmark>},
    {"--circuit", "FILE.qasm", set_text<&Cli::circuit_file>},
    {"--import", "MANIFEST", set_text<&Cli::import_manifest>},
    {"--benchmarks", "A,B,...", set_text<&Cli::benchmarks_csv>},
    {"--machine", "quera256|atom1225", set_text<&Cli::machine>},
    {"--technique", "NAME|all", set_text<&Cli::technique>},
    {"--aod-count", "N", set_positive_i32<&Cli::aod_count>},
    {"--no-home-return", nullptr, set_switch<&Cli::home_return, false>},
    {"--window", "N", set_positive_i32<&Cli::window>},
    {"--spread", "F", set_positive_f64<&Cli::spread>},
    {"--seed", "N", set_u64<&Cli::seed>},
    {"--threads", "N", set_threads},
    {"--json", nullptr, set_switch<&Cli::json, true>},
    {"--layers", nullptr, set_switch<&Cli::layers, true>},
    {"--render", nullptr, set_switch<&Cli::render, true>},
    {"--list-techniques", nullptr, set_switch<&Cli::list_techniques, true>},
    {"--export-qasm", "FILE", set_text<&Cli::export_qasm>},
    {"--cache-dir", "DIR", set_text<&Cli::cache_dir>},
    {"--no-cache", nullptr, set_switch<&Cli::use_cache, false>},
    {"--max-disk-bytes", "N", set_u64<&Cli::max_disk_bytes>},
    {"--shards", "N", set_shards},
    {"--out-dir", "DIR", set_text<&Cli::out_dir>},
    {"--spec", "FILE", set_text<&Cli::spec_file>},
    {"--out", "FILE", set_text<&Cli::out_file>},
    {"--origin", "LABEL", set_text<&Cli::origin>},
    {"--shots", "N", set_sim_shots, "sim"},
    {"--shots", nullptr, set_switch<&Cli::shots, true>},
    {"--socket", "PATH", set_text<&Cli::socket_path>},
    {"--max-inflight", "N", set_u64<&Cli::max_inflight>},
    {"--max-client-bytes", "N", set_u64<&Cli::max_client_bytes>},
    {"--manifest", "OUT", set_text<&Cli::manifest_out>},
    {"--list", nullptr, set_switch<&Cli::list_artifacts, true>},
    {"--all", nullptr, set_switch<&Cli::all_artifacts, true>},
    {"--format", "table|csv|json", set_text<&Cli::format>},
    {"--full-scale", nullptr, set_switch<&Cli::full_scale, true>},
};

// --- the command table -------------------------------------------------------

struct Command {
  /// The argv words that select the command; "" is compile mode. A
  /// bracketed second word ("serve [start]") may be omitted.
  std::string_view words;
  /// Flags that must be given a non-empty value, checked in this order.
  std::vector<std::string_view> required = {};
  /// An exactly-one group, which `check` enforces; a member that is not a
  /// flag stands for the positional arguments.
  std::vector<std::string_view> choice = {};
  std::vector<std::string_view> optional = {};
  /// The positional placeholder; nullptr when the command takes none.
  const char* positional = nullptr;
  /// The --technique default. Where it is "all", "all" expands to every
  /// registered technique; elsewhere to the paper's four, in ascending
  /// quality, so with --export-qasm the file that survives is Parallax's.
  const char* technique = "parallax";
  /// Why --no-cache contradicts --cache-dir/--max-disk-bytes here; every
  /// command that takes --no-cache has one.
  const char* cache_story = nullptr;
  /// The command's cross-flag rules, after the allowlist and the required
  /// flags.
  void (*check)(const Cli&) = nullptr;
  int (*run)(const Cli&) = nullptr;
};

std::string command_name(const Command& command) {
  if (command.words.empty()) return "compile mode";
  std::string name;
  for (const char c : command.words) {
    if (c != '[' && c != ']') name += c;
  }
  return name;
}

bool takes(const Command& command, std::string_view flag) {
  for (const auto* list :
       {&command.required, &command.choice, &command.optional}) {
    for (const std::string_view candidate : *list) {
      if (candidate == flag) return true;
    }
  }
  return false;
}

/// Whether `flag` was given a non-empty value (or, for a switch, given).
bool given(const Cli& cli, std::string_view flag) {
  const auto it = cli.given.find(flag);
  return it != cli.given.end() && (it->second == nullptr || *it->second);
}

void exactly_one(const Cli& cli, const std::string& error) {
  int count = 0;
  for (const std::string_view member : cli.command->choice) {
    const bool is_flag = member.substr(0, 2) == "--";
    count += (is_flag ? given(cli, member) : !cli.inputs.empty()) ? 1 : 0;
  }
  if (count != 1) reject(cli, error);
}

void check_compile(const Cli& cli) {
  if (!cli.list_techniques) {
    exactly_one(cli,
                "exactly one of --benchmark / --circuit / --import is "
                "required");
  }
}

void check_bench(const Cli& cli) {
  exactly_one(cli,
              "bench needs exactly one of --list, --all, or artifact names "
              "(see bench --list)");
  if (!cli.socket_path.empty()) {
    // A socket session's threads and cache live in the server process;
    // silently ignoring these would e.g. report warm-cache numbers to a
    // user who asked for --no-cache.
    for (const char* local_only :
         {"--threads", "--cache-dir", "--no-cache", "--max-disk-bytes"}) {
      if (cli.given.count(local_only) != 0) {
        reject(cli, std::string(local_only) +
                        " configures this process, not the serve session "
                        "--socket names (set it on `parallax serve` "
                        "instead)");
      }
    }
  }
}

int run_compile(const Cli& cli);
int run_import(const Cli& cli);
int run_cache_stats(const Cli& cli);
int run_cache_clear(const Cli& cli);
int run_cache_prewarm(const Cli& cli);
int run_shard_plan(const Cli& cli);
int run_shard_run(const Cli& cli);
int run_shard_merge(const Cli& cli);
int run_serve_start(const Cli& cli);
int run_serve_spec(const Cli& cli);
int run_serve_submit(const Cli& cli);
int run_serve_stats(const Cli& cli);
int run_serve_stop(const Cli& cli);
int run_bench(const Cli& cli);
int run_sim(const Cli& cli);

constexpr const char* kLocalCacheStory =
    "there is no cache for them to configure";

/// Every command, in usage order; compile mode, which no command word
/// selects, comes first. A flag a command would silently ignore
/// is a user error (e.g. `cache prewarm --benchmark WST` compiling the
/// whole suite instead of surfacing the typo, or `cache stats
/// --max-disk-bytes N` evicting during a read-only query), so each command
/// takes exactly the flags its row lists.
const std::vector<Command> kCommands = {
    {.words = "",
     .choice = {"--benchmark", "--circuit", "--import"},
     .optional = {"--machine", "--technique", "--aod-count",
                  "--no-home-return", "--window", "--spread", "--seed",
                  "--threads", "--json", "--layers", "--render",
                  "--export-qasm", "--cache-dir", "--no-cache",
                  "--max-disk-bytes", "--list-techniques"},
     .cache_story = kLocalCacheStory,
     .check = check_compile,
     .run = run_compile},
    {.words = "import",
     .optional = {"--manifest"},
     .positional = "FILE.qasm...",
     .check =
         [](const Cli& cli) {
           if (cli.inputs.empty()) {
             reject(cli, "import needs at least one FILE.qasm");
           }
         },
     .run = run_import},
    {.words = "cache stats",
     .optional = {"--cache-dir"},
     .run = run_cache_stats},
    {.words = "cache clear",
     .optional = {"--cache-dir"},
     .run = run_cache_clear},
    {.words = "cache prewarm",
     .optional = {"--benchmarks", "--machine", "--technique", "--aod-count",
                  "--no-home-return", "--spread", "--seed", "--threads",
                  "--cache-dir", "--max-disk-bytes"},
     .technique = "all",
     .run = run_cache_prewarm},
    {.words = "shard plan",
     .required = {"--shards", "--out-dir"},
     .optional = {"--benchmarks", "--import", "--machine", "--technique",
                  "--aod-count", "--no-home-return", "--window", "--spread",
                  "--seed", "--shots"},
     .technique = "all",
     .run = run_shard_plan},
    {.words = "shard run",
     .required = {"--spec", "--out"},
     .optional = {"--cache-dir", "--no-cache", "--max-disk-bytes",
                  "--threads", "--origin"},
     .cache_story =
         "the campaign's no-duplicate-anneal guarantee needs the cache",
     .run = run_shard_run},
    {.words = "shard merge",
     .required = {"--out"},
     .positional = "RUN_FILE...",
     .check =
         [](const Cli& cli) {
           if (cli.inputs.empty()) {
             reject(cli, "shard merge needs at least one shard run file");
           }
         },
     .run = run_shard_merge},
    {.words = "serve [start]",
     .optional = {"--socket", "--cache-dir", "--no-cache", "--threads",
                  "--max-disk-bytes", "--max-inflight", "--max-client-bytes"},
     .cache_story = "the service's warm-replay guarantee needs the cache",
     .run = run_serve_start},
    {.words = "serve spec",
     .required = {"--out"},
     .optional = {"--benchmarks", "--import", "--machine", "--technique",
                  "--aod-count", "--no-home-return", "--window", "--spread",
                  "--seed", "--shots"},
     .technique = "all",
     .run = run_serve_spec},
    {.words = "serve submit",
     .required = {"--socket", "--spec"},
     .optional = {"--out"},
     .run = run_serve_submit},
    {.words = "serve stats", .required = {"--socket"}, .run = run_serve_stats},
    {.words = "serve stop", .required = {"--socket"}, .run = run_serve_stop},
    {.words = "bench",
     .choice = {"--list", "--all", "NAME..."},
     .optional = {"--socket", "--format", "--benchmarks", "--seed",
                  "--threads", "--full-scale", "--cache-dir", "--no-cache",
                  "--max-disk-bytes"},
     .positional = "NAME...",
     .cache_story = "the warm session story needs the cache",
     .check = check_bench,
     .run = run_bench},
    {.words = "sim",
     .choice = {"--benchmark", "--circuit"},
     .optional = {"--machine", "--technique", "--aod-count",
                  "--no-home-return", "--spread", "--seed", "--shots",
                  "--threads", "--json", "--cache-dir", "--no-cache",
                  "--max-disk-bytes"},
     .cache_story = kLocalCacheStory,
     .check =
         [](const Cli& cli) {
           exactly_one(cli,
                       "sim needs exactly one of --benchmark / --circuit");
         },
     .run = run_sim},
};

/// The flag row `name` resolves to under `command`.
const Flag* find_flag(std::string_view name, const Command& command) {
  for (const Flag& flag : kFlags) {
    if (flag.name == name &&
        (flag.only.empty() || flag.only == command.words)) {
      return &flag;
    }
  }
  return nullptr;
}

/// "--flag META" ("--flag" for a switch), in brackets when optional; a
/// positional placeholder stays as it is.
std::string synopsis(std::string_view flag, const Command& command,
                     bool optional = false) {
  std::string text = optional ? "[" : "";
  text += flag;
  if (flag.substr(0, 2) == "--" && find_flag(flag, command)->meta) {
    text += ' ';
    text += find_flag(flag, command)->meta;
  }
  if (optional) text += ']';
  return text;
}

[[noreturn]] void usage(const char* argv0, const std::string& error) {
  if (!error.empty()) std::fprintf(stderr, "error: %s\n\n", error.c_str());
  std::string text;
  for (const Command& command : kCommands) {
    std::string line = text.empty() ? "usage: " : "       ";
    line += argv0;
    const std::size_t bare = line.size();
    const auto add = [&](const std::string& token) {
      if (line.size() > bare && line.size() + 1 + token.size() > 79) {
        text += line + "\n";
        line = std::string(15, ' ') + token;
      } else {
        line += " " + token;
      }
    };
    if (!command.words.empty()) add(std::string(command.words));
    for (const std::string_view flag : command.required) {
      add(synopsis(flag, command));
    }
    std::string group;
    for (const std::string_view member : command.choice) {
      group += group.empty() ? "(" : " | ";
      group += synopsis(member, command);
    }
    if (!group.empty()) add(group + ")");
    if (command.positional != nullptr &&
        group.find(command.positional) == std::string::npos) {
      add(command.positional);
    }
    for (const std::string_view flag : command.optional) {
      add(synopsis(flag, command, /*optional=*/true));
    }
    text += line + "\n";
  }
  std::fputs(text.c_str(), stderr);
  std::exit(error.empty() ? 0 : 2);
}

/// The command argv[1] (and argv[2]) select; `first` is set to the index
/// of the first argument after the command words.
const Command& select_command(int argc, char** argv, int& first) {
  first = 1;
  if (argc < 2) return kCommands.front();
  const std::string_view word = argv[1];
  std::string subcommands;  // the group's second words, for the error
  const Command* implied = nullptr;
  for (const Command& command : kCommands) {
    const std::size_t space = command.words.find(' ');
    if (command.words.empty() || command.words.substr(0, space) != word) {
      continue;
    }
    if (space == std::string_view::npos) {
      first = 2;
      return command;
    }
    std::string_view sub = command.words.substr(space + 1);
    if (sub.front() == '[') {
      sub = sub.substr(1, sub.size() - 2);
      implied = &command;
    }
    subcommands += (subcommands.empty() ? "" : ", ") + std::string(sub);
    if (argc > 2 && argv[2] == sub) {
      first = 3;
      return command;
    }
  }
  if (subcommands.empty()) return kCommands.front();
  // A bare group word (or one followed by a flag) selects the implied
  // subcommand: `serve --socket s.sock` is `serve start`.
  if (implied != nullptr && (argc == 2 || argv[2][0] == '-')) {
    first = 2;
    return *implied;
  }
  const std::string group(word);
  if (argc < 3) usage(argv[0], group + " needs a subcommand");
  usage(argv[0], "unknown " + group + " subcommand (use " + subcommands + ")");
}

Cli parse_cli(int argc, char** argv) {
  Cli cli;
  cli.argv0 = argv[0];
  int first = 1;
  const Command& command = select_command(argc, argv, first);
  cli.command = &command;
  cli.technique = command.technique;
  const std::string name = command_name(command);
  // Malformed values are reported before the allowlist, so the scan only
  // remembers the first flag the command does not take.
  std::string_view rejected;
  for (int i = first; i < argc; ++i) {
    const char* arg = argv[i];
    if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) {
      usage(argv[0]);
    }
    const Flag* flag = arg[0] == '-' ? find_flag(arg, command) : nullptr;
    if (flag == nullptr) {
      if (arg[0] == '-' || command.positional == nullptr) {
        reject(cli, std::string("unknown option ") + arg);
      }
      cli.inputs.push_back(arg);
      continue;
    }
    const char* value = nullptr;
    if (flag->meta != nullptr) {
      if (i + 1 >= argc) reject(cli, "missing value for option");
      value = argv[++i];
    }
    flag->set(cli, arg, value);
    cli.given[flag->name] = value;
    if (rejected.empty() && !takes(command, flag->name)) rejected = flag->name;
  }
  if (!rejected.empty()) {
    reject(cli, name + " does not take " + std::string(rejected));
  }
  for (const std::string_view flag : command.required) {
    if (!given(cli, flag)) {
      reject(cli, name + " needs " + synopsis(flag, command));
    }
  }
  if (command.check != nullptr) command.check(cli);
  if (command.cache_story != nullptr && !cli.use_cache &&
      (!cli.cache_dir.empty() || cli.max_disk_bytes != 0)) {
    reject(cli,
           std::string("--no-cache contradicts --cache-dir/--max-disk-bytes "
                       "(") +
               command.cache_story + ")");
  }
  if (!cli.import_manifest.empty() && !cli.benchmarks_csv.empty()) {
    reject(cli,
           "--import and --benchmarks both name the circuit axis; pick one");
  }
  return cli;
}

// --- shared helpers ----------------------------------------------------------

void print_text_summary(const parallax::sweep::Cell& cell) {
  std::printf("%-9s  CZ=%-6zu swaps=%-5zu effCZ=%-6zu layers=%-5zu "
              "runtime=%.1fus  moves=%zu tc=%zu  P(success)=%.3e%s\n",
              cell.technique.c_str(), cell.result.stats.cz_gates,
              cell.result.stats.swap_gates, cell.result.stats.effective_cz(),
              cell.result.stats.layers, cell.result.runtime_us,
              cell.result.stats.aod_moves, cell.result.stats.trap_changes,
              cell.success_probability, cell.from_cache ? "  [cached]" : "");
}

parallax::hardware::HardwareConfig machine_config(const Cli& cli) {
  parallax::hardware::HardwareConfig config;
  if (cli.machine == "quera256") {
    config = parallax::hardware::HardwareConfig::quera_aquila_256();
  } else if (cli.machine == "atom1225") {
    config = parallax::hardware::HardwareConfig::atom_computing_1225();
  } else {
    reject(cli, "unknown machine (use quera256 or atom1225)");
  }
  config.aod_rows = config.aod_cols = cli.aod_count;
  return config;
}

/// The compile options the matrix flags describe.
parallax::pipeline::CompileOptions compile_options(const Cli& cli) {
  parallax::pipeline::CompileOptions options;
  options.seed = cli.seed;
  options.scheduler.return_home = cli.home_return;
  options.discretize.spread_factor = cli.spread;
  options.placement.max_window_qubits = cli.window;
  return options;
}

std::shared_ptr<parallax::cache::CompilationCache> open_cache(
    const Cli& cli) {
  if (!cli.use_cache) return nullptr;
  parallax::cache::CacheOptions options;
  options.directory = cli.cache_dir;
  options.max_disk_bytes = cli.max_disk_bytes;
  return parallax::cache::CompilationCache::open(options);
}

std::vector<std::string> technique_list(const Cli& cli) {
  if (cli.technique != "all") return {cli.technique};
  if (std::string_view(cli.command->technique) == "all") {
    return parallax::technique::Registry::global().names();
  }
  return {"static", "graphine", "eldi", "parallax"};
}

/// --benchmarks A,B,... when given, else the whole Table III suite.
std::vector<std::string> benchmark_acronyms(const Cli& cli) {
  std::vector<std::string> acronyms;
  if (!cli.benchmarks_csv.empty()) {
    std::string token;
    for (const char c : cli.benchmarks_csv + ",") {
      if (c == ',') {
        if (!token.empty()) acronyms.push_back(token);
        token.clear();
      } else {
        token.push_back(c);
      }
    }
  } else {
    for (const auto& info : parallax::bench_circuits::all_benchmarks()) {
      acronyms.push_back(info.acronym);
    }
  }
  return acronyms;
}

/// The circuit axis of compile mode and sim: one benchmark, one QASM file,
/// or every circuit of an import manifest (load_circuits re-verifies each
/// file's digest). Reports a load failure and returns nullopt.
std::optional<std::vector<parallax::sweep::CircuitSpec>> load_circuits(
    const Cli& cli) {
  using namespace parallax;
  try {
    if (!cli.benchmark.empty()) {
      bench_circuits::GenOptions gen;
      gen.seed = cli.seed;
      return std::vector<sweep::CircuitSpec>{
          {cli.benchmark, bench_circuits::make_benchmark(cli.benchmark, gen)}};
    }
    if (!cli.circuit_file.empty()) {
      return std::vector<sweep::CircuitSpec>{
          {cli.circuit_file, qasm::parse_file(cli.circuit_file).circuit}};
    }
    return importer::load_circuits(
        importer::load_manifest(cli.import_manifest));
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error loading circuit: %s\n", error.what());
    return std::nullopt;
  }
}

void report_cache_line(const parallax::sweep::Result& swept,
                       const parallax::cache::CompilationCache& cache) {
  std::fprintf(stderr,
               "cache: %zu result hits, %zu result misses, %zu placements "
               "from disk, anneals=%llu (%s)\n",
               swept.result_cache_hits, swept.result_cache_misses,
               swept.placement_disk_hits,
               static_cast<unsigned long long>(swept.anneals),
               cache.directory().c_str());
}

/// The sweep of compile mode and sim over one machine. An unknown
/// technique is a usage error.
parallax::sweep::Result compile_sweep(
    const Cli& cli,
    const std::vector<parallax::sweep::CircuitSpec>& specs,
    const parallax::hardware::HardwareConfig& config,
    const parallax::sweep::Options& options) {
  parallax::sweep::Result swept;
  try {
    swept = parallax::sweep::run(specs, technique_list(cli),
                                 {{cli.machine, config}}, options,
                                 parallax::technique::Registry::global());
  } catch (const parallax::technique::UnknownTechniqueError& error) {
    reject(cli, error.what());
  }
  if (options.cache) report_cache_line(swept, *options.cache);
  return swept;
}

bool write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  return out.good();
}

bool read_file(const std::string& path, std::string& bytes) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (!in.good() && !in.eof()) return false;
  bytes = std::move(buffer).str();
  return true;
}

/// The benchmark-suite sweep spec the matrix flags describe — shared by
/// `shard plan` and `serve spec`.
parallax::shard::SweepSpec build_sweep_spec(const Cli& cli) {
  parallax::shard::SweepSpec spec;
  if (!cli.import_manifest.empty()) {
    // Imported circuits replace the benchmark suite as the circuit axis;
    // load_circuits re-verifies every file's content digest against the
    // manifest before anything compiles.
    spec.circuits = parallax::importer::load_circuits(
        parallax::importer::load_manifest(cli.import_manifest));
  } else {
    parallax::bench_circuits::GenOptions gen;
    gen.seed = cli.seed;
    spec.circuits =
        parallax::sweep::benchmark_circuits(benchmark_acronyms(cli), gen);
  }
  spec.techniques = technique_list(cli);
  spec.machines = {{cli.machine, machine_config(cli)}};
  spec.options.compile = compile_options(cli);
  if (cli.shots) spec.options.shots = parallax::shots::ShotOptions{};
  return spec;
}

// --- compile mode, import, cache ---------------------------------------------

int run_compile(const Cli& cli) {
  using namespace parallax;
  if (cli.list_techniques) {
    const technique::Registry& registry = technique::Registry::global();
    for (const auto& name : registry.names()) {
      std::printf("%-9s  %s\n", name.c_str(),
                  registry.info(name).description.c_str());
    }
    return 0;
  }
  const hardware::HardwareConfig config = machine_config(cli);
  const auto specs = load_circuits(cli);
  if (!specs) return 1;

  sweep::Options options;
  options.compile = compile_options(cli);
  options.n_threads = cli.threads;
  options.cache = open_cache(cli);
  const sweep::Result swept = compile_sweep(cli, *specs, config, options);

  std::string last_circuit;
  for (const auto& cell : swept.cells) {
    if (!cell.ok()) {
      std::fprintf(stderr, "compilation failed (%s/%s): %s\n",
                   cell.circuit.c_str(), cell.technique.c_str(),
                   cell.error.c_str());
      return 1;
    }
    if (!cli.json && specs->size() > 1 && cell.circuit != last_circuit) {
      std::printf("%s:\n", cell.circuit.c_str());
      last_circuit = cell.circuit;
    }
    if (cli.json) {
      compiler::ReportOptions report_options;
      report_options.include_layers = cli.layers;
      std::printf("%s\n",
                  compiler::report_json(cell.result, config, report_options)
                      .c_str());
    } else {
      print_text_summary(cell);
    }
    if (cli.render) {
      std::printf("%s", hardware::render_topology(cell.result).c_str());
    }
    if (!cli.export_qasm.empty()) {
      qasm::write_qasm_file(cell.result.circuit, cli.export_qasm);
      std::printf("compiled circuit written to %s\n",
                  cli.export_qasm.c_str());
    }
  }
  return 0;
}

int run_import(const Cli& cli) {
  namespace im = parallax::importer;
  std::vector<im::ImportEntry> entries;
  entries.reserve(cli.inputs.size());
  for (const auto& path : cli.inputs) {
    entries.push_back(im::import_file(path));
    const im::ImportEntry& entry = entries.back();
    std::fprintf(stderr,
                 "imported %s: %d qubits, %llu gates, %llu bytes, %s\n",
                 entry.path.c_str(), entry.n_qubits,
                 static_cast<unsigned long long>(entry.n_gates),
                 static_cast<unsigned long long>(entry.n_bytes),
                 entry.digest.hex().c_str());
  }
  const std::string manifest = im::write_manifest(entries);
  if (cli.manifest_out.empty()) {
    // Summary rides on stderr, so a bare `import a.qasm > m.tsv` works.
    std::fputs(manifest.c_str(), stdout);
    return 0;
  }
  if (!write_file(cli.manifest_out, manifest)) {
    std::fprintf(stderr, "cannot write %s\n", cli.manifest_out.c_str());
    return 1;
  }
  std::fprintf(stderr, "manifest: %zu circuits -> %s\n", entries.size(),
               cli.manifest_out.c_str());
  return 0;
}

int run_cache_stats(const Cli& cli) {
  namespace pc = parallax::cache;
  const auto cache = open_cache(cli);
  std::size_t placements = 0, results = 0;
  std::uint64_t placement_bytes = 0, result_bytes = 0;
  for (const auto& entry : cache->entries()) {
    if (entry.kind == pc::Kind::kPlacement) {
      ++placements;
      placement_bytes += entry.payload_bytes;
    } else {
      ++results;
      result_bytes += entry.payload_bytes;
    }
  }
  std::printf("cache directory: %s\n", cache->directory().c_str());
  std::printf("placements: %zu entries, %.1f KB\n", placements,
              static_cast<double>(placement_bytes) / 1024.0);
  std::printf("results:    %zu entries, %.1f KB\n", results,
              static_cast<double>(result_bytes) / 1024.0);
  std::printf("total:      %zu entries, %.1f KB\n", placements + results,
              static_cast<double>(placement_bytes + result_bytes) / 1024.0);
  return 0;
}

int run_cache_clear(const Cli& cli) {
  const auto cache = open_cache(cli);
  const std::size_t removed = cache->clear();
  std::printf("removed %zu entries from %s\n", removed,
              cache->directory().c_str());
  return 0;
}

/// Compiles the benchmark suite into the cache.
int run_cache_prewarm(const Cli& cli) {
  const auto cache = open_cache(cli);
  parallax::bench_circuits::GenOptions gen;
  gen.seed = cli.seed;
  parallax::sweep::Options options;
  options.compile = compile_options(cli);
  options.n_threads = cli.threads;
  options.cache = cache;
  const auto swept = parallax::sweep::run(
      parallax::sweep::benchmark_circuits(benchmark_acronyms(cli), gen),
      technique_list(cli), {{cli.machine, machine_config(cli)}}, options,
      parallax::technique::Registry::global());
  std::size_t failed = 0;
  for (const auto& cell : swept.cells) failed += cell.ok() ? 0 : 1;
  std::printf(
      "prewarmed %zu cells (%zu already cached, %zu failed) in %.1fs "
      "into %s\n",
      swept.cells.size(), swept.result_cache_hits, failed,
      swept.wall_seconds, cache->directory().c_str());
  return failed == 0 ? 0 : 1;
}

// --- shard -------------------------------------------------------------------

int run_shard_plan(const Cli& cli) {
  namespace sh = parallax::shard;
  const sh::SweepSpec spec = build_sweep_spec(cli);
  const auto shards =
      sh::plan(spec, cli.shards, parallax::technique::Registry::global());
  std::error_code ec;
  std::filesystem::create_directories(cli.out_dir, ec);
  const std::size_t total = spec.total_cells();
  std::printf("plan: %zu cells (%zu circuits x %zu techniques x %zu "
              "machines), spec %s\n",
              total, spec.circuits.size(), spec.techniques.size(),
              spec.machines.size(), sh::spec_digest(spec).hex().c_str());
  for (const auto& shard : shards) {
    const auto range =
        sh::shard_cell_range(total, shard.shard_count, shard.shard_index);
    const std::string path =
        (std::filesystem::path(cli.out_dir) /
         ("shard-" + std::to_string(shard.shard_index) + ".spec"))
            .string();
    if (!write_file(path, sh::serialize_shard_spec(shard))) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return 1;
    }
    std::printf("  %s  cells [%zu, %zu)\n", path.c_str(), range.begin,
                range.end);
  }
  return 0;
}

int run_shard_run(const Cli& cli) {
  namespace sh = parallax::shard;
  std::string bytes;
  if (!read_file(cli.spec_file, bytes)) {
    std::fprintf(stderr, "cannot read shard spec %s\n",
                 cli.spec_file.c_str());
    return 1;
  }
  const sh::ShardSpec spec = sh::parse_shard_spec(bytes);
  sh::RunnerOptions runner;
  runner.n_threads = cli.threads;
  runner.cache = open_cache(cli);
  runner.provenance = cli.origin;
  const sh::ShardRun executed = sh::run_shard(spec, runner);
  std::size_t failed = 0;
  for (const auto& cell : executed.cells) failed += cell.ok() ? 0 : 1;
  if (!write_file(cli.out_file, sh::serialize_shard_run(executed))) {
    std::fprintf(stderr, "cannot write %s\n", cli.out_file.c_str());
    return 1;
  }
  std::printf("shard %u/%u: %zu cells (%zu failed) in %.1fs -> %s\n",
              executed.shard_index, executed.shard_count,
              executed.cells.size(), failed, executed.wall_seconds,
              cli.out_file.c_str());
  std::fprintf(stderr,
               "anneals=%llu result_hits=%llu result_misses=%llu "
               "placements_from_disk=%llu\n",
               static_cast<unsigned long long>(executed.anneals),
               static_cast<unsigned long long>(executed.result_cache_hits),
               static_cast<unsigned long long>(executed.result_cache_misses),
               static_cast<unsigned long long>(executed.placement_disk_hits));
  return failed == 0 ? 0 : 1;
}

int run_shard_merge(const Cli& cli) {
  namespace sh = parallax::shard;
  std::vector<sh::ShardRun> runs;
  runs.reserve(cli.inputs.size());
  for (const auto& path : cli.inputs) {
    std::string bytes;
    if (!read_file(path, bytes)) {
      std::fprintf(stderr, "cannot read shard run %s\n", path.c_str());
      return 1;
    }
    runs.push_back(sh::parse_shard_run(bytes));
  }
  const std::size_t n_runs = runs.size();
  const parallax::sweep::Result merged = sh::merge(std::move(runs));
  std::size_t failed = 0;
  std::size_t cached = 0;
  for (const auto& cell : merged.cells) {
    failed += cell.ok() ? 0 : 1;
    cached += cell.from_cache ? 1 : 0;
    if (!cell.ok()) {
      std::fprintf(stderr, "failed cell %s/%s/%s (%s): %s\n",
                   cell.circuit.c_str(), cell.technique.c_str(),
                   cell.machine.c_str(),
                   cell.origin.empty() ? "?" : cell.origin.c_str(),
                   cell.error.c_str());
    }
  }
  if (!write_file(cli.out_file, sh::canonical_bytes(merged))) {
    std::fprintf(stderr, "cannot write %s\n", cli.out_file.c_str());
    return 1;
  }
  std::printf("merged %zu cells from %zu shards (%zu failed, %zu served "
              "from cache) -> %s\n",
              merged.cells.size(), n_runs, failed, cached,
              cli.out_file.c_str());
  return failed == 0 ? 0 : 1;
}

// --- serve -------------------------------------------------------------------

/// SIGINT/SIGTERM land here; the serve loops poll it and drain gracefully
/// (cancel in-flight tickets, flush done frames, unlink the socket).
std::atomic<bool> g_serve_stop{false};

void install_serve_signal_handlers() {
  struct sigaction action {};
  action.sa_handler = [](int) {
    g_serve_stop.store(true, std::memory_order_relaxed);
  };
  ::sigemptyset(&action.sa_mask);
  // No SA_RESTART: accept/read/poll must return EINTR so the stop flag is
  // observed promptly instead of after the next client activity.
  (void)::sigaction(SIGINT, &action, nullptr);
  (void)::sigaction(SIGTERM, &action, nullptr);
}

/// The session cache's counters at drain: where the served results came
/// from, and how many transpiles the handle's transpile map saved.
void report_session_cache(const parallax::cache::CompilationCache& cache) {
  const parallax::cache::CacheStats stats = cache.stats();
  std::fprintf(stderr,
               "serve: session cache: %zu result hits, %zu result misses, "
               "%zu memory hits, %zu disk hits, %zu transpiles skipped, %zu "
               "transpiles run\n",
               stats.result_hits, stats.result_misses,
               stats.store.memory_hits, stats.store.disk_hits,
               stats.transpiles_skipped, stats.transpiles_run);
}

int run_serve_start(const Cli& cli) {
  namespace sv = parallax::serve;
  sv::ServiceOptions service_options;
  service_options.n_threads = cli.threads;
  service_options.cache = open_cache(cli);
  sv::SweepService service(service_options);
  sv::ServerOptions server_options;
  if (cli.max_inflight != 0) {
    server_options.max_inflight_per_client =
        static_cast<std::size_t>(cli.max_inflight);
  }
  if (cli.max_client_bytes != 0) {
    server_options.max_client_buffered_bytes =
        static_cast<std::size_t>(cli.max_client_bytes);
  }
  install_serve_signal_handlers();
  server_options.stop = &g_serve_stop;
  if (service_options.cache) {
    std::fprintf(stderr, "serve: session cache at %s\n",
                 service_options.cache->directory().c_str());
  }
  if (cli.socket_path.empty()) {
    std::fprintf(stderr,
                 "serve: reading requests from stdin (%zu worker threads)\n",
                 service.threads());
    const std::size_t served =
        sv::serve_connection(0, 1, service, server_options);
    std::fprintf(stderr, "serve: connection closed after %zu requests\n",
                 served);
    if (service_options.cache) report_session_cache(*service_options.cache);
    return 0;
  }
  std::fprintf(stderr, "serve: listening on %s (%zu worker threads)\n",
               cli.socket_path.c_str(), service.threads());
  if (!sv::serve_unix_socket(cli.socket_path, service, server_options)) {
    std::fprintf(stderr, "serve: cannot listen on %s: %s\n",
                 cli.socket_path.c_str(), std::strerror(errno));
    return 1;
  }
  std::fprintf(stderr, "serve: session drained, socket unlinked\n");
  if (service_options.cache) report_session_cache(*service_options.cache);
  return 0;
}

int run_serve_stop(const Cli& cli) {
  parallax::serve::Client client(cli.socket_path);
  client.stop();
  std::fprintf(stderr, "serve: session at %s draining\n",
               cli.socket_path.c_str());
  return 0;
}

int run_serve_stats(const Cli& cli) {
  parallax::serve::Client client(cli.socket_path);
  parallax::report::print_server_stats(stderr, client.stats());
  return 0;
}

int run_serve_spec(const Cli& cli) {
  namespace sh = parallax::shard;
  const sh::SweepSpec spec = build_sweep_spec(cli);
  if (!write_file(cli.out_file, sh::serialize_sweep_spec(spec))) {
    std::fprintf(stderr, "cannot write %s\n", cli.out_file.c_str());
    return 1;
  }
  std::printf("spec: %zu cells (%zu circuits x %zu techniques x %zu "
              "machines), digest %s -> %s\n",
              spec.total_cells(), spec.circuits.size(),
              spec.techniques.size(), spec.machines.size(),
              sh::spec_digest(spec).hex().c_str(), cli.out_file.c_str());
  return 0;
}

int run_serve_submit(const Cli& cli) {
  namespace sh = parallax::shard;
  namespace sv = parallax::serve;
  std::string bytes;
  if (!read_file(cli.spec_file, bytes)) {
    std::fprintf(stderr, "cannot read sweep spec %s\n",
                 cli.spec_file.c_str());
    return 1;
  }
  const sh::SweepSpec spec = sh::parse_sweep_spec(bytes);
  sv::Client client(cli.socket_path);
  const sv::ClientOutcome outcome = client.run(spec);
  const sv::Summary& summary = outcome.summary;
  if (!summary.ok()) {
    std::fprintf(stderr, "serve request failed: %s\n", summary.error.c_str());
    return 1;
  }
  if (!cli.out_file.empty() &&
      !write_file(cli.out_file, sh::canonical_bytes(outcome.result))) {
    std::fprintf(stderr, "cannot write %s\n", cli.out_file.c_str());
    return 1;
  }
  std::printf(
      "serve: %llu cells (%llu executed, %llu failed, %llu cancelled), "
      "%llu result hits, %llu result misses, anneals=%llu in %.1fs\n",
      static_cast<unsigned long long>(summary.total_cells),
      static_cast<unsigned long long>(summary.executed_cells),
      static_cast<unsigned long long>(summary.failed_cells),
      static_cast<unsigned long long>(summary.cancelled_cells),
      static_cast<unsigned long long>(summary.result_cache_hits),
      static_cast<unsigned long long>(summary.result_cache_misses),
      static_cast<unsigned long long>(summary.anneals),
      summary.wall_seconds);
  return summary.failed_cells == 0 && !summary.cancelled ? 0 : 1;
}

// --- sim ---------------------------------------------------------------------

int run_sim(const Cli& cli) {
  using namespace parallax;
  const hardware::HardwareConfig config = machine_config(cli);
  const auto specs = load_circuits(cli);
  if (!specs) return 1;
  const sweep::CircuitSpec& spec = specs->front();

  sweep::Options options;
  options.compile = compile_options(cli);
  // The simulated fidelity backend forces per-layer position recording (and
  // keys the cache accordingly).
  options.compile.fidelity.model = noise::FidelityModel::kSimulated;
  options.compile.fidelity.shots = cli.sim_shots;
  options.compute_success_probability = false;  // scored both ways below
  options.n_threads = cli.threads;
  options.cache = open_cache(cli);
  const sweep::Result swept = compile_sweep(cli, *specs, config, options);

  int exit_code = 0;
  for (const auto& cell : swept.cells) {
    if (!cell.ok()) {
      std::fprintf(stderr, "compilation failed (%s): %s\n",
                   cell.technique.c_str(), cell.error.c_str());
      return 1;
    }
    const double model_p =
        noise::success_probability(cell.result, config, options.noise);

    sim::SimOptions sim_options;
    sim_options.shots = cli.sim_shots;
    // The same per-circuit derivation the sweep backend uses, so `sim` and
    // a simulated-fidelity sweep report identical shot streams.
    sim_options.seed =
        util::derive_seed(cli.seed, spec.name, util::kSimSeedSalt);
    sim_options.channels = options.noise;
    sim_options.n_threads = cli.threads;  // 0 = hardware concurrency

    const util::Stopwatch stopwatch;
    sim::SurvivalEstimate estimate;
    try {
      estimate = sim::simulate(cell.result, config, sim_options);
    } catch (const sim::SimError& error) {
      std::fprintf(stderr, "simulation failed (%s): %s\n",
                   cell.technique.c_str(), error.what());
      return 1;
    }
    const double seconds = stopwatch.seconds();

    const compiler::ValidationReport ledger =
        compiler::validate_continuous(cell.result, config);
    if (!ledger.ok) exit_code = 1;

    const double sigma = estimate.std_error();
    const double diff = std::abs(estimate.mean() - model_p);
    const double z = sigma > 0.0 ? diff / sigma : (diff == 0.0 ? 0.0 : 1e9);

    // Non-zero first-failure counts, channel-code order.
    util::JsonValue failure_counts = util::JsonValue::object();
    std::string failures;
    for (std::uint8_t c = 1; c < sim::kOutcomeChannels; ++c) {
      if (estimate.failures[c] == 0) continue;
      failure_counts[sim::outcome_name(c)] = estimate.failures[c];
      if (!failures.empty()) failures += "  ";
      failures += std::string(sim::outcome_name(c)) + "=" +
                  std::to_string(estimate.failures[c]);
    }

    if (cli.json) {
      util::JsonValue row = util::JsonValue::object();
      row["circuit"] = cell.circuit;
      row["technique"] = cell.technique;
      row["machine"] = cell.machine;
      row["shots"] = estimate.shots;
      row["model_success"] = model_p;
      row["simulated_success"] = estimate.mean();
      row["std_error"] = sigma;
      row["z"] = z;
      row["outcome_digest"] = estimate.outcome_digest.hex();
      row["ledger_ok"] = ledger.ok;
      row["failures"] = std::move(failure_counts);
      std::printf("%s\n", row.dump(-1).c_str());
    } else {
      std::printf("%-9s  CZ=%zu effCZ=%zu layers=%zu runtime=%.1fus%s\n",
                  cell.technique.c_str(), cell.result.stats.cz_gates,
                  cell.result.stats.effective_cz(), cell.result.stats.layers,
                  cell.result.runtime_us, cell.from_cache ? "  [cached]" : "");
      std::printf("  ledger: %s\n", ledger.ok ? "ok" : "FAIL");
      for (const auto& violation : ledger.violations) {
        std::printf("    %s\n", violation.c_str());
      }
      std::printf("  model     P(success) = %.6e\n", model_p);
      std::printf("  simulated P(success) = %.6e +/- %.3e  "
                  "(%lld shots, |z| = %.2f)\n",
                  estimate.mean(), sigma,
                  static_cast<long long>(estimate.shots), z);
      std::printf("  outcome digest: %s\n",
                  estimate.outcome_digest.hex().c_str());
      if (!failures.empty()) {
        std::printf("  failures: %s\n", failures.c_str());
      }
    }
    std::fprintf(stderr, "sim: %s/%s %lld shots in %.3fs (%.0f shots/s)\n",
                 cell.circuit.c_str(), cell.technique.c_str(),
                 static_cast<long long>(estimate.shots), seconds,
                 seconds > 0 ? static_cast<double>(estimate.shots) / seconds
                             : 0.0);
  }
  return exit_code;
}

// --- bench -------------------------------------------------------------------

int run_bench(const Cli& cli) {
  namespace rp = parallax::report;
  const rp::Registry& registry = rp::Registry::global();

  if (cli.list_artifacts) {
    for (const auto& name : registry.names()) {
      const rp::Artifact& artifact = registry.at(name);
      std::printf("%-12s  %-15s %s\n", name.c_str(), artifact.title.c_str(),
                  rp::flat_line(artifact.description).c_str());
    }
    return 0;
  }

  rp::OrchestratorOptions options;
  options.report.seed = cli.seed;
  options.report.full_scale = cli.full_scale;
  const auto format = rp::parse_format(cli.format);
  if (!format) {
    reject(cli, "--format expects table, csv, or json, got '" + cli.format +
                    "'");
  }
  options.format = *format;
  if (!cli.benchmarks_csv.empty()) {
    options.report.circuits = benchmark_acronyms(cli);
    for (const auto& acronym : options.report.circuits) {
      bool known = false;
      for (const auto& info : parallax::bench_circuits::all_benchmarks()) {
        known |= info.acronym == acronym;
      }
      if (!known) {
        reject(cli, "--benchmarks names an unknown Table III acronym '" +
                        acronym + "'");
      }
    }
  }

  const std::vector<std::string> names =
      cli.all_artifacts ? registry.names() : cli.inputs;

  // The executor: plain in-process sweeps, or a running socket session.
  std::unique_ptr<parallax::serve::Client> client;
  rp::RunSpec run_spec;
  if (cli.socket_path.empty()) {
    run_spec = rp::in_process(cli.threads, open_cache(cli));
  } else {
    client = std::make_unique<parallax::serve::Client>(cli.socket_path);
    run_spec = rp::over_socket(*client);
  }

  const parallax::util::Stopwatch stopwatch;
  std::vector<rp::ArtifactOutcome> outcomes;
  rp::RunTotals totals;
  try {
    std::tie(outcomes, totals) =
        rp::run_artifacts(registry, names, run_spec, options, stdout, stderr);
  } catch (const rp::UnknownArtifactError& error) {
    reject(cli, error.what());
  }
  rp::print_accounting(stderr, outcomes.size(), totals, stopwatch.seconds());
  if (client) {
    // The server's lifetime numbers (this run plus every earlier one of
    // the session) — the STATS request over the wire.
    rp::print_server_stats(stderr, client->stats());
  }
  for (const auto& outcome : outcomes) {
    if (!outcome.ok) return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = parse_cli(argc, argv);
  // The one error boundary: a command that throws fails with its name.
  try {
    return cli.command->run(cli);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "%s failed: %s\n",
                 command_name(*cli.command).c_str(), error.what());
    return 1;
  }
}
