// Report-layer tests. The acceptance core: every artifact renders an
// identical document whether its sweeps run through report::in_process or
// report::over_socket (the differential guarantee `parallax bench --socket`
// rests on). Around it: registry integrity (eleven unique names, unknown
// names rejected, duplicate registration rejected), spec serializability
// round trips, generate's refusal of cells that failed or never ran,
// renderer formats, and the orchestrator's warm-session accounting.
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/cache.hpp"
#include "report/artifact.hpp"
#include "report/orchestrator.hpp"
#include "report/render.hpp"
#include "report/runner.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "shard/spec.hpp"
#include "sweep/sweep.hpp"

namespace fs = std::filesystem;
namespace pc = parallax::cache;
namespace rp = parallax::report;
namespace sh = parallax::shard;
namespace sv = parallax::serve;
namespace sw = parallax::sweep;

namespace {

std::string fresh_dir(const std::string& tag) {
  static int counter = 0;
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("parallax_report_" + tag + "_" +
                        std::to_string(::getpid()) + "_" +
                        std::to_string(counter++));
  fs::remove_all(dir);
  return dir.string();
}

/// Small-but-real report options: two Table III circuits keep every
/// suite-driven artifact non-trivial while the whole pass stays fast.
rp::Options small_options() {
  rp::Options options;
  options.seed = 7;
  options.circuits = {"WST", "QV"};
  return options;
}

std::string render_via(const rp::RunSpec& run_spec,
                       const rp::Artifact& artifact,
                       const rp::Options& options) {
  return rp::render_text(rp::generate(artifact, options, run_spec), options);
}

/// In-process sweeps on hardware concurrency with no persistent cache.
rp::RunSpec uncached() { return rp::in_process(0, nullptr); }

/// run_artifacts over small_options(): the rendered documents land in
/// `out`, the progress lines nowhere.
std::pair<std::vector<rp::ArtifactOutcome>, rp::RunTotals> run_capturing(
    const std::vector<std::string>& names, const rp::RunSpec& run_spec,
    std::string& out) {
  char* buffer = nullptr;
  std::size_t size = 0;
  std::FILE* out_stream = ::open_memstream(&buffer, &size);
  std::FILE* log = std::fopen("/dev/null", "w");
  EXPECT_NE(out_stream, nullptr);
  EXPECT_NE(log, nullptr);
  rp::OrchestratorOptions options;
  options.report = small_options();
  auto outcome = rp::run_artifacts(rp::Registry::global(), names, run_spec,
                                   options, out_stream, log);
  std::fclose(out_stream);
  std::fclose(log);
  out.assign(buffer, size);
  std::free(buffer);
  return outcome;
}

const std::vector<std::string> kExpectedNames = {
    "table02", "table03",  "table04",      "fig09",
    "fig10",   "fig11",    "fig12",        "fig13",
    "ablation", "compile-time", "sim-vs-model"};

}  // namespace

// --- registry integrity -------------------------------------------------------

TEST(ArtifactRegistry, HoldsAllElevenArtifactsInOrder) {
  const rp::Registry& registry = rp::Registry::global();
  EXPECT_EQ(registry.names(), kExpectedNames);
  EXPECT_EQ(registry.size(), 11u);
}

TEST(ArtifactRegistry, NamesAreUniqueAndEntriesComplete) {
  const rp::Registry& registry = rp::Registry::global();
  std::set<std::string> seen;
  for (const auto& name : registry.names()) {
    EXPECT_TRUE(seen.insert(name).second) << "duplicate name " << name;
    const rp::Artifact& artifact = registry.at(name);
    EXPECT_EQ(artifact.name, name);
    EXPECT_FALSE(artifact.title.empty());
    EXPECT_FALSE(artifact.description.empty());
    EXPECT_TRUE(static_cast<bool>(artifact.plan));
    EXPECT_TRUE(static_cast<bool>(artifact.render));
  }
}

TEST(ArtifactRegistry, UnknownArtifactIsRejectedNamingTheKnownSet) {
  const rp::Registry& registry = rp::Registry::global();
  EXPECT_EQ(registry.find("fig99"), nullptr);
  try {
    (void)registry.at("fig99");
    FAIL() << "expected UnknownArtifactError";
  } catch (const rp::UnknownArtifactError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("fig99"), std::string::npos);
    EXPECT_NE(what.find("fig09"), std::string::npos);  // lists known names
  }
}

TEST(ArtifactRegistry, DuplicateRegistrationIsRejected) {
  rp::Registry registry;
  rp::Artifact artifact;
  artifact.name = "twice";
  registry.add(artifact);
  EXPECT_THROW(registry.add(artifact), rp::ReportError);
}

// --- spec serializability -----------------------------------------------------

// Every spec any artifact plans must round-trip through the shard codec —
// this is what guarantees the whole registry can stream through a serve
// session (no cell filters, nothing process-local).
TEST(ArtifactRegistry, EverySpecRoundTripsThroughTheWireCodec) {
  const rp::Options options = small_options();
  const rp::RunSpec run = uncached();
  std::size_t specs_seen = 0;
  for (const auto& name : rp::Registry::global().names()) {
    const rp::Artifact& artifact = rp::Registry::global().at(name);
    (void)rp::generate(artifact, options, [&](const sh::SweepSpec& spec) {
      ++specs_seen;
      const std::string bytes = sh::serialize_sweep_spec(spec);
      const sh::SweepSpec reparsed = sh::parse_sweep_spec(bytes);
      EXPECT_EQ(sh::spec_digest(reparsed), sh::spec_digest(spec))
          << name << " spec does not round-trip";
      return run(spec);
    });
  }
  // table02/table03 plan no sweeps; the other nine plan at least one each
  // (fig12 and sim-vs-model plan two).
  EXPECT_GE(specs_seen, 17u);
}

// --- differential rendering: in-process vs a serve socket --------------------

TEST(ReportDifferential, SocketClientRendersIdenticalDocuments) {
  const rp::Options options = small_options();
  const rp::RunSpec in_process = uncached();

  sv::SweepService service({.n_threads = 2, .cache = nullptr});
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::thread server([&] {
    (void)sv::serve_connection(fds[0], fds[0], service);
    ::close(fds[0]);
  });
  {
    sv::Client client(fds[1]);
    const rp::RunSpec remote = rp::over_socket(client);
    // The full wire path for every artifact, the multi-phase fig11 (whose
    // second phase depends on first-phase results) among them.
    for (const auto& name : rp::Registry::global().names()) {
      const rp::Artifact& artifact = rp::Registry::global().at(name);
      EXPECT_EQ(render_via(in_process, artifact, options),
                render_via(remote, artifact, options))
          << "artifact " << name << " renders differently over the wire";
    }
    client.quit();
  }
  server.join();
}

TEST(Generate, FailedCellsFailTheArtifactLoudly) {
  // A circuit that cannot fit the machine produces a failed cell; generate
  // must refuse to render from partial results.
  rp::Artifact artifact;
  artifact.name = "doomed";
  artifact.title = "Doomed";
  artifact.description = "every cell fails";
  artifact.plan = [](const rp::Options&,
                     const std::vector<sw::Result>& prior) {
    if (!prior.empty()) return std::vector<sh::SweepSpec>{};
    parallax::circuit::Circuit big(500, "big500");
    big.h(0);
    big.cx(0, 499);
    big.measure_all();
    sh::SweepSpec spec;
    spec.circuits = {{"big500", std::move(big)}};
    spec.techniques = {"parallax"};
    const auto config = parallax::hardware::HardwareConfig::quera_aquila_256();
    spec.machines = {{config.name, config}};
    return std::vector<sh::SweepSpec>{std::move(spec)};
  };
  artifact.render = [](const rp::Options&, const std::vector<sw::Result>&) {
    return rp::Rendered{};
  };
  EXPECT_THROW((void)rp::generate(artifact, rp::Options{}, uncached()),
               rp::ReportError);
}

TEST(Generate, CellsThatNeverRanFailTheArtifact) {
  // A cancelled request's unstarted cells, like the cells a filter skips,
  // carry labels and an empty result; rendered, they would be rows of
  // zeros averaged into the paper comparison.
  const rp::Options options = small_options();
  const rp::Artifact& artifact = rp::Registry::global().at("fig09");
  const rp::RunSpec run = uncached();
  for (const bool cancelled : {true, false}) {
    SCOPED_TRACE(cancelled ? "cancelled" : "skipped");
    std::string last_cell;
    try {
      (void)rp::generate(artifact, options, [&](const sh::SweepSpec& spec) {
        sw::Result result = run(spec);
        sw::Cell& last = result.cells.back();
        last_cell = last.circuit + "/" + last.technique + "/" + last.machine;
        sw::Cell never_ran;
        never_ran.circuit = last.circuit;
        never_ran.technique = last.technique;
        never_ran.machine = last.machine;
        never_ran.circuit_index = last.circuit_index;
        never_ran.technique_index = last.technique_index;
        never_ran.machine_index = last.machine_index;
        never_ran.cancelled = cancelled;
        never_ran.skipped = !cancelled;
        last = std::move(never_ran);
        return result;
      });
      ADD_FAILURE() << "rendered from a cell that never ran";
    } catch (const rp::ReportError& error) {
      EXPECT_EQ(std::string(error.what()),
                "artifact 'fig09' sweep cell " + last_cell + " did not run");
    }
  }
}

TEST(Generate, Table04ProfileWithoutPassTimesIsOneLine) {
  // The cell codec drops pass timings, so cells served over a socket carry
  // none. The profile then says so instead of printing a column of zeros,
  // and the rendered document does not change.
  const rp::Options options = small_options();
  const rp::Artifact& artifact = rp::Registry::global().at("table04");
  const rp::RunSpec run = uncached();
  const rp::Rendered timed = rp::generate(artifact, options, run);
  EXPECT_NE(timed.volatile_text.find("Bench"), std::string::npos)
      << timed.volatile_text;
  const rp::Rendered untimed =
      rp::generate(artifact, options, [&](const sh::SweepSpec& spec) {
        sw::Result result = run(spec);
        for (auto& cell : result.cells) cell.result.pass_timings.clear();
        return result;
      });
  EXPECT_EQ(untimed.volatile_text,
            "Parallax per-pass compile time on " +
                parallax::hardware::HardwareConfig::quera_aquila_256().name +
                ": not shown (per-pass times are not carried over a serve "
                "socket)");
  EXPECT_EQ(rp::render_text(untimed, options),
            rp::render_text(timed, options));
}

// --- renderers ----------------------------------------------------------------

TEST(Render, TextReproducesTheBenchPreamble) {
  rp::Options options;
  options.seed = 11;
  const rp::Rendered rendered =
      rp::generate(rp::Registry::global().at("table02"), options, uncached());
  const std::string text = rp::render_text(rendered, options);
  EXPECT_EQ(text.rfind("=== Table II ===\n", 0), 0u);
  EXPECT_NE(text.find("\nseed=11 full_scale=0\n\n"), std::string::npos);
  EXPECT_NE(text.find("Number of qubits"), std::string::npos);
}

TEST(Render, CsvEscapesAndAnnotates) {
  rp::Rendered rendered;
  rendered.artifact = "t";
  rendered.title = "T";
  rendered.description = "line one\nline two";
  rp::Block block;
  block.title = "b";
  block.header = {"a", "b"};
  block.rows = {{"plain", "has,comma"}, {"has\"quote", "x"}};
  rendered.blocks.push_back(block);
  rendered.summary = {"done"};
  const std::string csv = rp::render_csv(rendered);
  EXPECT_NE(csv.find("# t: T — line one line two\n"), std::string::npos);
  EXPECT_NE(csv.find("a,b\n"), std::string::npos);
  EXPECT_NE(csv.find("plain,\"has,comma\"\n"), std::string::npos);
  EXPECT_NE(csv.find("\"has\"\"quote\",x\n"), std::string::npos);
  EXPECT_NE(csv.find("# done\n"), std::string::npos);
}

TEST(Render, JsonIsOneCompactObjectPerArtifact) {
  rp::Rendered rendered;
  rendered.artifact = "fig";
  rendered.title = "Fig";
  rendered.description = "d";
  rp::Block block;
  block.header = {"h"};
  block.rows = {{"v"}};
  rendered.blocks.push_back(block);
  const std::string json = rp::render_json(rendered);
  EXPECT_EQ(json.back(), '\n');
  EXPECT_EQ(std::count(json.begin(), json.end(), '\n'), 1);
  EXPECT_NE(json.find(R"("artifact":"fig")"), std::string::npos);
  EXPECT_NE(json.find(R"("rows":[["v"]])"), std::string::npos);
}

TEST(Render, FormatNamesRoundTrip) {
  for (const auto format :
       {rp::Format::kTable, rp::Format::kCsv, rp::Format::kJson}) {
    EXPECT_EQ(rp::parse_format(rp::format_name(format)), format);
  }
  EXPECT_FALSE(rp::parse_format("xml").has_value());
}

// --- orchestrator -------------------------------------------------------------

TEST(Orchestrator, UnknownNameFailsBeforeAnyWork) {
  std::size_t calls = 0;
  const rp::RunSpec counting = [&](const sh::SweepSpec& spec) {
    ++calls;
    return uncached()(spec);
  };
  rp::OrchestratorOptions options;
  EXPECT_THROW((void)rp::run_artifacts(rp::Registry::global(),
                                       {"fig09", "fig99"}, counting, options,
                                       stdout, stderr),
               rp::UnknownArtifactError);
  EXPECT_EQ(calls, 0u);
}

TEST(Orchestrator, RendersEachArtifactAndReportsOutcomes) {
  std::string text;
  const auto [outcomes, totals] =
      run_capturing({"table02", "table03"}, uncached(), text);
  ASSERT_EQ(outcomes.size(), 2u);
  EXPECT_TRUE(outcomes[0].ok);
  EXPECT_TRUE(outcomes[1].ok);
  EXPECT_EQ(totals.sweeps, 0u);  // both artifacts plan no sweep
  EXPECT_NE(text.find("=== Table II ==="), std::string::npos);
  EXPECT_NE(text.find("=== Table III ==="), std::string::npos);
}

TEST(Orchestrator, WarmRerunReportsFullHitsAndZeroAnneals) {
  const rp::RunSpec run = rp::in_process(
      0, pc::CompilationCache::open({.directory = fresh_dir("warm")}));

  std::string cold;
  const auto [cold_outcomes, cold_totals] = run_capturing({"fig09"}, run, cold);
  ASSERT_EQ(cold_outcomes.size(), 1u);
  EXPECT_TRUE(cold_outcomes[0].ok) << cold_outcomes[0].error;
  EXPECT_EQ(cold_totals.sweeps, 1u);
  EXPECT_GT(cold_totals.executed_cells, 0u);
  EXPECT_GT(cold_totals.anneals, 0u);
  EXPECT_EQ(cold_totals.result_cache_hits, 0u);

  std::string warm;
  const auto [warm_outcomes, warm_totals] = run_capturing({"fig09"}, run, warm);
  ASSERT_EQ(warm_outcomes.size(), 1u);
  EXPECT_TRUE(warm_outcomes[0].ok) << warm_outcomes[0].error;
  EXPECT_EQ(warm, cold);
  EXPECT_EQ(warm_totals.sweeps, 1u);
  EXPECT_EQ(warm_totals.anneals, 0u);  // nothing re-annealed
  EXPECT_EQ(warm_totals.result_cache_hits, cold_totals.executed_cells);
  EXPECT_EQ(warm_totals.result_cache_misses, 0u);
  EXPECT_EQ(warm_totals.failed_cells, 0u);
}
