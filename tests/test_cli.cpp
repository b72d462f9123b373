// The parallax_cli command-line contract, tested against the built binary
// (PARALLAX_CLI_PATH): the exit code and first stderr line of every parse
// rejection and late rejection, the precedence between checks, the set of
// flags each command accepts, the usage text, the one error boundary, and
// that sim --json escapes the strings it prints.
//
// Every run is a fork/exec with no shell, in a fresh temporary working
// directory, with stdin on /dev/null and a timeout. argv[0] is always
// "parallax_cli", so the usage text is stable. No case compiles more than
// one small benchmark; a parse rejection takes a few milliseconds.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#ifndef PARALLAX_CLI_PATH
#error "PARALLAX_CLI_PATH must name the parallax_cli binary under test"
#endif

namespace fs = std::filesystem;

namespace {

struct CliRun {
  /// The exit status, or 128 + the signal number for a killed process.
  int status = -1;
  bool timed_out = false;
  std::string out;
  std::string err;

  [[nodiscard]] std::string first_err_line() const {
    return err.substr(0, err.find('\n'));
  }
};

/// Runs parallax_cli with `args` in a fresh temporary directory and
/// collects its exit status, stdout and stderr. A run past `timeout` is
/// killed and reported as timed out.
CliRun run_cli(const std::vector<std::string>& args,
               std::chrono::milliseconds timeout = std::chrono::seconds(60)) {
  CliRun run;
  std::string dir = ::testing::TempDir() + "parallax_cli_XXXXXX";
  if (::mkdtemp(dir.data()) == nullptr) {
    ADD_FAILURE() << "mkdtemp: " << std::strerror(errno);
    return run;
  }
  std::vector<std::string> argv_storage = {"parallax_cli"};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& arg : argv_storage) argv.push_back(arg.data());
  argv.push_back(nullptr);

  int out_pipe[2];
  int err_pipe[2];
  if (::pipe2(out_pipe, O_CLOEXEC) != 0 || ::pipe2(err_pipe, O_CLOEXEC) != 0) {
    ADD_FAILURE() << "pipe2: " << std::strerror(errno);
    return run;
  }
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec.
    const int null_fd = ::open("/dev/null", O_RDONLY);
    if (::chdir(dir.c_str()) != 0 || null_fd < 0 ||
        ::dup2(null_fd, STDIN_FILENO) < 0 ||
        ::dup2(out_pipe[1], STDOUT_FILENO) < 0 ||
        ::dup2(err_pipe[1], STDERR_FILENO) < 0) {
      ::_exit(126);
    }
    ::execv(PARALLAX_CLI_PATH, argv.data());
    ::_exit(127);
  }
  ::close(out_pipe[1]);
  ::close(err_pipe[1]);
  if (pid < 0) {
    ADD_FAILURE() << "fork: " << std::strerror(errno);
    ::close(out_pipe[0]);
    ::close(err_pipe[0]);
    return run;
  }

  const auto deadline = std::chrono::steady_clock::now() + timeout;
  pollfd fds[2] = {{out_pipe[0], POLLIN, 0}, {err_pipe[0], POLLIN, 0}};
  std::string* sinks[2] = {&run.out, &run.err};
  int open_fds = 2;
  while (open_fds > 0) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      run.timed_out = true;
      ::kill(pid, SIGKILL);
      break;
    }
    const int ready = ::poll(fds, 2, static_cast<int>(left.count()));
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) continue;
    for (int i = 0; i < 2; ++i) {
      if (fds[i].fd < 0 || fds[i].revents == 0) continue;
      char buffer[4096];
      const ssize_t n = ::read(fds[i].fd, buffer, sizeof(buffer));
      if (n > 0) {
        sinks[i]->append(buffer, static_cast<std::size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        ::close(fds[i].fd);
        fds[i].fd = -1;
        --open_fds;
      }
    }
  }
  for (const pollfd& entry : fds) {
    if (entry.fd >= 0) ::close(entry.fd);
  }
  int wait_status = 0;
  while (::waitpid(pid, &wait_status, 0) < 0 && errno == EINTR) {
  }
  if (WIFEXITED(wait_status)) {
    run.status = WEXITSTATUS(wait_status);
  } else if (WIFSIGNALED(wait_status)) {
    run.status = 128 + WTERMSIG(wait_status);
  }
  std::error_code ignored;
  fs::remove_all(dir, ignored);
  return run;
}

std::string joined(const std::vector<std::string>& args) {
  std::string text;
  for (const std::string& arg : args) {
    text += text.empty() ? "" : " ";
    text += arg.empty() ? "\"\"" : arg;
  }
  return text;
}

struct Case {
  std::vector<std::string> args;
  int status;
  std::string first_err_line;
};

void expect_cases(const std::vector<Case>& cases) {
  for (const Case& c : cases) {
    SCOPED_TRACE("parallax_cli " + joined(c.args));
    const CliRun run = run_cli(c.args);
    ASSERT_FALSE(run.timed_out);
    EXPECT_EQ(run.status, c.status);
    EXPECT_EQ(run.first_err_line(), c.first_err_line);
  }
}

}  // namespace

// --- rejections: exit 2 and the first stderr line -----------------------------

TEST(CliContract, SubcommandWordErrors) {
  expect_cases({
      {{"cache"}, 2, "error: cache needs a subcommand"},
      {{"cache", "frob"},
       2,
       "error: unknown cache subcommand (use stats, clear, prewarm)"},
      {{"cache", "--cache-dir", "d"},
       2,
       "error: unknown cache subcommand (use stats, clear, prewarm)"},
      {{"shard"}, 2, "error: shard needs a subcommand"},
      {{"shard", "frob"},
       2,
       "error: unknown shard subcommand (use plan, run, merge)"},
      {{"serve", "frob"},
       2,
       "error: unknown serve subcommand (use start, spec, submit, stats, "
       "stop)"},
      {{"serve", ""},
       2,
       "error: unknown serve subcommand (use start, spec, submit, stats, "
       "stop)"},
  });
}

TEST(CliContract, MissingValues) {
  expect_cases({
      {{"--benchmark"}, 2, "error: missing value for option"},
      {{"shard", "plan", "--out-dir"}, 2, "error: missing value for option"},
      {{"sim", "--shots"}, 2, "error: missing value for option"},
      {{"bench", "--all", "--socket"}, 2, "error: missing value for option"},
  });
}

TEST(CliContract, MalformedValues) {
  expect_cases({
      {{"--seed", "banana"},
       2,
       "error: --seed expects a non-negative integer, got 'banana'"},
      {{"--seed", "-1"},
       2,
       "error: --seed expects a non-negative integer, got '-1'"},
      {{"--threads", "4x"},
       2,
       "error: --threads expects a non-negative integer, got '4x'"},
      {{"--benchmark", "WST", "--threads", "1025"},
       2,
       "error: --threads must be in [0, 1024]"},
      {{"--max-disk-bytes", "-5"},
       2,
       "error: --max-disk-bytes expects a non-negative integer, got '-5'"},
      {{"serve", "--max-inflight", "z"},
       2,
       "error: --max-inflight expects a non-negative integer, got 'z'"},
      {{"serve", "--max-client-bytes", "1e3"},
       2,
       "error: --max-client-bytes expects a non-negative integer, got '1e3'"},
      {{"--aod-count", "0"},
       2,
       "error: --aod-count expects a positive integer, got '0'"},
      {{"--window", "x"},
       2,
       "error: --window expects a positive integer, got 'x'"},
      {{"--spread", "-2"},
       2,
       "error: --spread expects a positive number, got '-2'"},
      {{"--spread", "nan"},
       2,
       "error: --spread expects a positive number, got 'nan'"},
      // An infinite spread passes the value check; the next rejection is
      // compile mode's missing source.
      {{"--spread", "inf"},
       2,
       "error: exactly one of --benchmark / --circuit / --import is "
       "required"},
      {{"shard", "plan", "--shards", "0"},
       2,
       "error: --shards must be in [1, 1048576]"},
      {{"shard", "plan", "--shards", "1048577"},
       2,
       "error: --shards must be in [1, 1048576]"},
      {{"shard", "plan", "--shards", "x"},
       2,
       "error: --shards expects a non-negative integer, got 'x'"},
      {{"sim", "--shots", "0"}, 2, "error: --shots expects a positive shot count"},
      {{"sim", "--shots", "9223372036854775808"},
       2,
       "error: --shots expects a positive shot count"},
      {{"sim", "--shots", "x"},
       2,
       "error: --shots expects a non-negative integer, got 'x'"},
  });
}

TEST(CliContract, UnknownOptionsAndStrayPositionals) {
  expect_cases({
      {{"--frobnicate"}, 2, "error: unknown option --frobnicate"},
      {{"-x"}, 2, "error: unknown option -x"},
      {{"stray"}, 2, "error: unknown option stray"},
      {{"cache", "stats", "stray"}, 2, "error: unknown option stray"},
      {{"serve", "start", "stray"}, 2, "error: unknown option stray"},
      {{"sim", "--benchmark", "WST", "stray"}, 2, "error: unknown option stray"},
  });
}

TEST(CliContract, RequiredFlags) {
  expect_cases({
      {{"shard", "plan", "--out-dir", "d"},
       2,
       "error: shard plan needs --shards N"},
      {{"shard", "plan", "--shards", "2"},
       2,
       "error: shard plan needs --out-dir DIR"},
      {{"shard", "run", "--out", "o"}, 2, "error: shard run needs --spec FILE"},
      {{"shard", "run", "--spec", "s"}, 2, "error: shard run needs --out FILE"},
      {{"shard", "merge", "a.bin"}, 2, "error: shard merge needs --out FILE"},
      {{"shard", "merge", "--out", "", "a.bin"},
       2,
       "error: shard merge needs --out FILE"},
      {{"serve", "spec"}, 2, "error: serve spec needs --out FILE"},
      {{"serve", "submit", "--spec", "s"},
       2,
       "error: serve submit needs --socket PATH"},
      {{"serve", "submit", "--socket", "p"},
       2,
       "error: serve submit needs --spec FILE"},
      {{"serve", "stats"}, 2, "error: serve stats needs --socket PATH"},
      {{"serve", "stop"}, 2, "error: serve stop needs --socket PATH"},
  });
}

TEST(CliContract, BenchModeRules) {
  const std::string modes =
      "error: bench needs exactly one of --list, --all, or artifact names "
      "(see bench --list)";
  const std::string local_tail =
      " configures this process, not the serve session --socket names (set "
      "it on `parallax serve` instead)";
  expect_cases({
      {{"bench"}, 2, modes},
      {{"bench", "--all", "--list"}, 2, modes},
      {{"bench", "--all", "table02"}, 2, modes},
      // No command takes these flags.
      {{"bench", "--perf-json", "p.json"},
       2,
       "error: unknown option --perf-json"},
      {{"bench", "--all", "--perf-baseline", "b.json"},
       2,
       "error: unknown option --perf-baseline"},
      {{"bench", "--all", "--shards", "2"},
       2,
       "error: bench does not take --shards"},
      {{"bench", "--all", "--serve", "s.sock"},
       2,
       "error: unknown option --serve"},
      {{"bench", "--all", "--socket", "s.sock", "--threads", "2"},
       2,
       "error: --threads" + local_tail},
      {{"bench", "--all", "--socket", "s.sock", "--cache-dir", "d"},
       2,
       "error: --cache-dir" + local_tail},
      {{"bench", "--all", "--socket", "s.sock", "--no-cache"},
       2,
       "error: --no-cache" + local_tail},
      {{"bench", "--all", "--socket", "s.sock", "--max-disk-bytes", "5"},
       2,
       "error: --max-disk-bytes" + local_tail},
      {{"bench", "--all", "--socket", "s.sock", "--no-cache", "--cache-dir",
        "d"},
       2,
       "error: --cache-dir" + local_tail},
  });
}

TEST(CliContract, NoCacheContradictions) {
  expect_cases({
      {{"bench", "--all", "--no-cache", "--cache-dir", "d"},
       2,
       "error: --no-cache contradicts --cache-dir/--max-disk-bytes (the "
       "warm session story needs the cache)"},
      {{"bench", "--all", "--no-cache", "--max-disk-bytes", "5"},
       2,
       "error: --no-cache contradicts --cache-dir/--max-disk-bytes (the "
       "warm session story needs the cache)"},
      {{"shard", "run", "--spec", "s", "--out", "o", "--no-cache",
        "--cache-dir", "d"},
       2,
       "error: --no-cache contradicts --cache-dir/--max-disk-bytes (the "
       "campaign's no-duplicate-anneal guarantee needs the cache)"},
      {{"serve", "--no-cache", "--max-disk-bytes", "5"},
       2,
       "error: --no-cache contradicts --cache-dir/--max-disk-bytes (the "
       "service's warm-replay guarantee needs the cache)"},
  });
}

TEST(CliContract, ExactlyOneAndPositionalRules) {
  const std::string sources =
      "error: exactly one of --benchmark / --circuit / --import is required";
  expect_cases({
      {{}, 2, sources},
      {{"--json"}, 2, sources},
      {{"--benchmark", "WST", "--import", "m.tsv"}, 2, sources},
      {{"--benchmark", "WST", "--circuit", "x.qasm"}, 2, sources},
      {{"sim"}, 2, "error: sim needs exactly one of --benchmark / --circuit"},
      {{"sim", "--benchmark", "WST", "--circuit", "x.qasm"},
       2,
       "error: sim needs exactly one of --benchmark / --circuit"},
      {{"import"}, 2, "error: import needs at least one FILE.qasm"},
      {{"import", "--manifest", "m"},
       2,
       "error: import needs at least one FILE.qasm"},
      {{"shard", "merge", "--out", "o"},
       2,
       "error: shard merge needs at least one shard run file"},
      {{"shard", "plan", "--shards", "2", "--out-dir", "d", "--import", "m",
        "--benchmarks", "WST"},
       2,
       "error: --import and --benchmarks both name the circuit axis; pick "
       "one"},
      {{"serve", "spec", "--out", "o", "--import", "m", "--benchmarks", "WST"},
       2,
       "error: --import and --benchmarks both name the circuit axis; pick "
       "one"},
  });
}

TEST(CliContract, LateRejections) {
  expect_cases({
      {{"--benchmark", "WST", "--machine", "nosuch", "--no-cache"},
       2,
       "error: unknown machine (use quera256 or atom1225)"},
      {{"sim", "--benchmark", "WST", "--machine", "nosuch", "--no-cache"},
       2,
       "error: unknown machine (use quera256 or atom1225)"},
      {{"cache", "prewarm", "--machine", "nosuch", "--benchmarks", "WST",
        "--cache-dir", "c"},
       2,
       "error: unknown machine (use quera256 or atom1225)"},
      {{"--benchmark", "WST", "--technique", "nosuch", "--no-cache"},
       2,
       "error: unknown technique 'nosuch' (known: parallax, eldi, graphine, "
       "static, parallax-fast, parallax-mc4, graphine-mc4, parallax-race)"},
      {{"bench", "table02", "--format", "xml", "--no-cache"},
       2,
       "error: --format expects table, csv, or json, got 'xml'"},
      {{"bench", "table02", "--benchmarks", "NOPE", "--no-cache"},
       2,
       "error: --benchmarks names an unknown Table III acronym 'NOPE'"},
      {{"bench", "nosuch", "--no-cache"},
       2,
       "error: unknown artifact 'nosuch' (known: table02, table03, table04, "
       "fig09, fig10, fig11, fig12, fig13, ablation, compile-time, "
       "sim-vs-model)"},
  });
}

TEST(CliContract, RuntimeFailuresExitOne) {
  expect_cases({
      {{"--benchmark", "NOPE", "--no-cache"},
       1,
       "error loading circuit: unknown benchmark: NOPE"},
      {{"sim", "--benchmark", "NOPE", "--no-cache"},
       1,
       "error loading circuit: unknown benchmark: NOPE"},
      {{"--circuit", "missing.qasm", "--no-cache"},
       1,
       "error loading circuit: cannot open missing.qasm"},
      {{"--import", "missing.tsv", "--no-cache"},
       1,
       "error loading circuit: import: cannot open manifest 'missing.tsv'"},
      {{"shard", "run", "--spec", "missing.spec", "--out", "o.bin"},
       1,
       "cannot read shard spec missing.spec"},
      {{"shard", "merge", "--out", "o.bin", "missing.bin"},
       1,
       "cannot read shard run missing.bin"},
      {{"serve", "submit", "--socket", "/nonexistent/s.sock", "--spec",
        "missing.spec"},
       1,
       "cannot read sweep spec missing.spec"},
      {{"serve", "stats", "--socket", "/nonexistent/s.sock"},
       1,
       "serve stats failed: cannot connect to serve socket "
       "'/nonexistent/s.sock': No such file or directory"},
      {{"import", "missing.qasm"},
       1,
       "import failed: import: cannot open 'missing.qasm'"},
  });
}

// --- precedence ---------------------------------------------------------------

TEST(CliContract, Precedence) {
  expect_cases({
      // A malformed value is reported before the allowlist, even for a
      // flag the command does not take.
      {{"cache", "stats", "--seed", "banana"},
       2,
       "error: --seed expects a non-negative integer, got 'banana'"},
      {{"import", "a.qasm", "--aod-count", "-3"},
       2,
       "error: --aod-count expects a positive integer, got '-3'"},
      // The allowlist reports the first rejected flag in argv order.
      {{"cache", "stats", "--json", "--seed", "3"},
       2,
       "error: cache stats does not take --json"},
      // --shots takes a value only in sim; everywhere else it is a switch.
      {{"bench", "--shots"}, 2, "error: bench does not take --shots"},
      {{"shard", "plan", "--shards", "2", "--out-dir", "d", "--shots", "5"},
       2,
       "error: unknown option 5"},
      // A bare `serve` (or one followed by a flag) is `serve start`.
      {{"serve", "--json"}, 2, "error: serve start does not take --json"},
      {{"serve", "--frob"}, 2, "error: unknown option --frob"},
      // --help exits at the point the scan reaches it.
      {{"--seed", "banana", "--help"},
       2,
       "error: --seed expects a non-negative integer, got 'banana'"},
      // Required flags come before the command's cross-flag rules.
      {{"shard", "merge"}, 2, "error: shard merge needs --out FILE"},
  });
}

// --- exit 0 -------------------------------------------------------------------

TEST(CliContract, HelpAndListingsExitZero) {
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{{"--help"},
                                             {"-h"},
                                             {"bench", "--help"},
                                             {"shard", "plan", "-h"},
                                             {"--help", "--seed", "banana"}}) {
    SCOPED_TRACE("parallax_cli " + joined(args));
    const CliRun run = run_cli(args);
    EXPECT_EQ(run.status, 0);
    EXPECT_EQ(run.err.rfind("usage: parallax_cli ", 0), 0u) << run.err;
  }
  {
    const CliRun run = run_cli({"--list-techniques"});
    EXPECT_EQ(run.status, 0);
    EXPECT_NE(run.out.find("parallax "), std::string::npos) << run.out;
  }
  {
    const CliRun run = run_cli({"bench", "--list"});
    EXPECT_EQ(run.status, 0);
    EXPECT_EQ(run.out.rfind("table02", 0), 0u) << run.out;
  }
  {
    // The largest --threads; listing the artifacts starts no pool.
    const CliRun run = run_cli({"bench", "--list", "--threads", "1024"});
    EXPECT_EQ(run.status, 0);
    EXPECT_EQ(run.out.rfind("table02", 0), 0u) << run.out;
  }
}

// --- accepted flag sets -------------------------------------------------------

namespace {

/// Every flag the parser knows, with a well-formed sample value (none for a
/// switch). `--shots` takes a value only in sim.
const std::vector<std::pair<std::string, std::string>>& all_flags() {
  static const std::vector<std::pair<std::string, std::string>> flags = {
      {"--benchmark", "WST"},     {"--circuit", "x.qasm"},
      {"--import", "m.tsv"},      {"--window", "8"},
      {"--machine", "quera256"},  {"--technique", "parallax"},
      {"--aod-count", "4"},       {"--no-home-return", ""},
      {"--spread", "1.5"},        {"--seed", "7"},
      {"--threads", "1"},         {"--json", ""},
      {"--layers", ""},           {"--render", ""},
      {"--list-techniques", ""},  {"--export-qasm", "o.qasm"},
      {"--cache-dir", "d"},       {"--no-cache", ""},
      {"--max-disk-bytes", "99"}, {"--benchmarks", "WST"},
      {"--shards", "3"},          {"--out-dir", "d"},
      {"--spec", "s.spec"},       {"--out", "o.bin"},
      {"--origin", "host"},       {"--shots", ""},
      {"--socket", "s.sock"},     {"--max-inflight", "2"},
      {"--max-client-bytes", "9"}, {"--format", "csv"},
      {"--all", ""},              {"--list", ""},
      {"--full-scale", ""},       {"--manifest", "m.tsv"},
  };
  return flags;
}

struct CommandSpec {
  std::string name;                // as the CLI's messages print it
  std::vector<std::string> words;  // argv words that select it
  std::set<std::string> accepted;
};

const std::vector<CommandSpec>& all_commands() {
  static const std::vector<CommandSpec> commands = {
      {"compile mode",
       {},
       {"--benchmark", "--circuit", "--import", "--window", "--machine",
        "--technique", "--aod-count", "--no-home-return", "--spread",
        "--seed", "--threads", "--json", "--layers", "--render",
        "--list-techniques", "--export-qasm", "--cache-dir", "--no-cache",
        "--max-disk-bytes"}},
      {"import", {"import"}, {"--manifest"}},
      {"cache stats", {"cache", "stats"}, {"--cache-dir"}},
      {"cache clear", {"cache", "clear"}, {"--cache-dir"}},
      {"cache prewarm",
       {"cache", "prewarm"},
       {"--cache-dir", "--max-disk-bytes", "--machine", "--technique",
        "--benchmarks", "--seed", "--threads", "--spread", "--no-home-return",
        "--aod-count"}},
      {"shard plan",
       {"shard", "plan"},
       {"--shards", "--out-dir", "--benchmarks", "--import", "--window",
        "--machine", "--technique", "--seed", "--spread", "--no-home-return",
        "--shots", "--aod-count"}},
      {"shard run",
       {"shard", "run"},
       {"--spec", "--out", "--cache-dir", "--no-cache", "--max-disk-bytes",
        "--threads", "--origin"}},
      {"shard merge", {"shard", "merge"}, {"--out"}},
      {"serve start",
       {"serve", "start"},
       {"--socket", "--cache-dir", "--no-cache", "--threads",
        "--max-disk-bytes", "--max-inflight", "--max-client-bytes"}},
      {"serve spec",
       {"serve", "spec"},
       {"--out", "--benchmarks", "--import", "--window", "--machine",
        "--technique", "--seed", "--spread", "--no-home-return", "--shots",
        "--aod-count"}},
      {"serve submit", {"serve", "submit"}, {"--socket", "--spec", "--out"}},
      {"serve stats", {"serve", "stats"}, {"--socket"}},
      {"serve stop", {"serve", "stop"}, {"--socket"}},
      {"bench",
       {"bench"},
       {"--all", "--list", "--socket", "--format", "--benchmarks", "--seed",
        "--threads", "--full-scale", "--cache-dir", "--no-cache",
        "--max-disk-bytes"}},
      {"sim",
       {"sim"},
       {"--benchmark", "--circuit", "--machine", "--technique", "--aod-count",
        "--no-home-return", "--spread", "--seed", "--shots", "--threads",
        "--json", "--cache-dir", "--no-cache", "--max-disk-bytes"}},
  };
  return commands;
}

std::vector<std::string> flag_args(const CommandSpec& command,
                                   const std::pair<std::string, std::string>&
                                       flag) {
  if (flag.first == "--shots" && command.name == "sim") return {"--shots", "5"};
  if (flag.second.empty()) return {flag.first};
  return {flag.first, flag.second};
}

/// Which flags `command` accepts, as the binary answers. Each probe puts
/// the flag first and a switch the command rejects after it: the allowlist
/// reports the first rejected flag in argv order, and nothing compiles.
std::set<std::string> probe_accepted(const CommandSpec& command) {
  std::set<std::string> accepted;
  for (const auto& flag : all_flags()) {
    std::string trigger;
    for (const auto& candidate : all_flags()) {
      if (candidate.second.empty() && candidate.first != flag.first &&
          candidate.first != "--shots" &&
          command.accepted.count(candidate.first) == 0) {
        trigger = candidate.first;
        break;
      }
    }
    std::vector<std::string> args = command.words;
    const std::vector<std::string> probe = flag_args(command, flag);
    args.insert(args.end(), probe.begin(), probe.end());
    args.push_back(trigger);
    const CliRun run = run_cli(args);
    const std::string line = run.first_err_line();
    if (line == "error: " + command.name + " does not take " + trigger) {
      accepted.insert(flag.first);
    } else if (line != "error: " + command.name + " does not take " +
                           flag.first) {
      ADD_FAILURE() << "parallax_cli " << joined(args)
                    << ": unexpected rejection: " << line;
    }
  }
  return accepted;
}

/// The probed accepted sets, computed once per process.
const std::map<std::string, std::set<std::string>>& probed_sets() {
  static const std::map<std::string, std::set<std::string>> sets = [] {
    std::map<std::string, std::set<std::string>> result;
    for (const CommandSpec& command : all_commands()) {
      result[command.name] = probe_accepted(command);
    }
    return result;
  }();
  return sets;
}

std::string listed(const std::set<std::string>& flags) {
  std::string text;
  for (const std::string& flag : flags) text += " " + flag;
  return text;
}

}  // namespace

TEST(CliContract, AcceptedFlagSets) {
  for (const CommandSpec& command : all_commands()) {
    EXPECT_EQ(listed(probed_sets().at(command.name)), listed(command.accepted))
        << command.name;
  }
}

// --- usage lists exactly what each command accepts ----------------------------

namespace {

/// Splits the --help text into one flag set per command. An entry starts
/// at a line that begins with "usage: parallax_cli" or with spaces and
/// "parallax_cli"; deeper-indented lines continue it. Its leading words
/// name the command: a plain word, an optional "[word]", or alternatives
/// "(a|b|c)" (one entry for each). An entry with no words is compile mode.
std::map<std::string, std::set<std::string>> usage_flag_sets(
    const std::string& help) {
  std::vector<std::string> entries;
  std::istringstream lines(help);
  std::string line;
  const std::regex entry_start(R"(^(usage: | +)parallax_cli( |$))");
  while (std::getline(lines, line)) {
    std::smatch match;
    if (std::regex_search(line, match, entry_start)) {
      entries.push_back(line.substr(static_cast<std::size_t>(
          match.position(0) + match.length(0))));
    } else if (!entries.empty()) {
      entries.back() += " " + line;
    }
  }
  const std::regex plain(R"(^[a-z]+$)");
  const std::regex optional(R"(^\[([a-z]+)\]$)");
  const std::regex alternatives(R"(^\(([a-z]+(\|[a-z]+)+)\)$)");
  const std::regex flag(R"(--[a-z][a-z-]*)");
  std::map<std::string, std::set<std::string>> sets;
  for (const std::string& entry : entries) {
    std::istringstream tokens(entry);
    std::vector<std::string> names = {""};
    std::string rest;
    std::string token;
    while (tokens >> token) {
      std::smatch match;
      std::vector<std::string> words;
      if (std::regex_match(token, plain)) {
        words = {token};
      } else if (std::regex_match(token, match, optional)) {
        words = {match[1].str()};
      } else if (std::regex_match(token, match, alternatives)) {
        std::istringstream split(match[1].str());
        std::string word;
        while (std::getline(split, word, '|')) words.push_back(word);
      } else {
        std::string tail;
        std::getline(tokens, tail);
        rest = token + tail;
        break;
      }
      std::vector<std::string> expanded;
      for (const std::string& name : names) {
        for (const std::string& word : words) {
          expanded.push_back(name.empty() ? word : name + " " + word);
        }
      }
      names = std::move(expanded);
    }
    std::set<std::string> flags;
    for (auto it = std::sregex_iterator(rest.begin(), rest.end(), flag);
         it != std::sregex_iterator(); ++it) {
      if (it->str() != "--help") flags.insert(it->str());
    }
    for (const std::string& name : names) {
      sets[name.empty() ? "compile mode" : name].insert(flags.begin(),
                                                        flags.end());
    }
  }
  return sets;
}

}  // namespace

TEST(CliUsage, ListsExactlyTheFlagsEachCommandAccepts) {
  const CliRun help = run_cli({"--help"});
  ASSERT_EQ(help.status, 0);
  const auto usage = usage_flag_sets(help.err);
  for (const CommandSpec& command : all_commands()) {
    const auto it = usage.find(command.name);
    ASSERT_NE(it, usage.end()) << "no usage entry for " << command.name;
    EXPECT_EQ(listed(it->second), listed(probed_sets().at(command.name)))
        << "usage entry of " << command.name;
  }
}

TEST(CliUsage, ShowsTheExactlyOneGroups) {
  const CliRun help = run_cli({"--help"});
  ASSERT_EQ(help.status, 0);
  std::string flat;
  for (const char c : help.err) {
    if (c == '\n' || c == ' ') {
      if (!flat.empty() && flat.back() != ' ') flat += ' ';
    } else {
      flat += c;
    }
  }
  for (const char* group :
       {"(--benchmark NAME | --circuit FILE.qasm | --import MANIFEST)",
        "(--benchmark NAME | --circuit FILE.qasm)"}) {
    EXPECT_NE(flat.find(group), std::string::npos) << group << "\n" << flat;
  }
  EXPECT_NE(flat.find("bench (--list | --all | NAME...)"),
            std::string::npos)
      << flat;
}

// --- one error boundary -------------------------------------------------------

TEST(CliErrorBoundary, ARuntimeFailureIsReportedNotAnAbort) {
  const CliRun run = run_cli({"--benchmark", "WST", "--no-cache", "--export-qasm",
                           "/nonexistent/x.qasm"});
  EXPECT_EQ(run.status, 1);
  EXPECT_EQ(run.first_err_line(),
            "compile mode failed: cannot open /nonexistent/x.qasm");
}

TEST(CliErrorBoundary, EveryCommandNamesItselfInTheFailure) {
  expect_cases({
      {{"cache", "prewarm", "--benchmarks", "NOPE", "--cache-dir", "c"},
       1,
       "cache prewarm failed: unknown benchmark: NOPE"},
      {{"shard", "plan", "--shards", "2", "--out-dir", "d", "--technique",
        "nosuch", "--benchmarks", "WST"},
       1,
       "shard plan failed: unknown technique 'nosuch' (known: parallax, eldi, "
       "graphine, static, parallax-fast, parallax-mc4, graphine-mc4, "
       "parallax-race)"},
  });
}

// --- sim --json escapes its strings -------------------------------------------

TEST(CliSimJson, EscapesAQuoteInTheCircuitName) {
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("parallax_cli_sim_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const fs::path qasm = dir / "gh\"z.qasm";
  std::ofstream(qasm) << "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
                         "qreg q[3];\ncreg c[3];\nh q[0];\ncx q[0],q[1];\n"
                         "cx q[1],q[2];\nmeasure q -> c;\n";
  const CliRun run = run_cli({"sim", "--circuit", qasm.string(), "--shots",
                              "64", "--no-cache", "--json"});
  fs::remove_all(dir);
  ASSERT_FALSE(run.timed_out);
  EXPECT_EQ(run.status, 0) << run.err;
  EXPECT_NE(run.out.find("/gh\\\"z.qasm\",\"technique\":"), std::string::npos)
      << run.out;
}

// --- --no-cache contradicts a cache location on every command -----------------

TEST(CliNoCache, CompileModeAndSimRejectACacheLocation) {
  const std::string opening =
      "error: --no-cache contradicts --cache-dir/--max-disk-bytes (";
  for (const std::vector<std::string>& args :
       std::vector<std::vector<std::string>>{
           {"--benchmark", "WST", "--no-cache", "--cache-dir", "d"},
           {"--benchmark", "WST", "--no-cache", "--max-disk-bytes", "5"},
           {"sim", "--benchmark", "WST", "--no-cache", "--cache-dir", "d"},
           {"sim", "--benchmark", "WST", "--no-cache", "--max-disk-bytes",
            "5"}}) {
    SCOPED_TRACE("parallax_cli " + joined(args));
    const CliRun run = run_cli(args);
    EXPECT_EQ(run.status, 2);
    EXPECT_EQ(run.first_err_line().rfind(opening, 0), 0u)
        << run.first_err_line();
  }
}
