// warm-serve: set-up fills one cache with the paper-suite matrix of every
// input instance and starts a serve session on a Unix socket (one sweep
// worker thread, a fresh cache handle on the filled directory). Two
// closed-loop clients, each on its own connection, then SUBMIT one-circuit
// specs (1 circuit x 4 techniques x 2 machines = 8 cells) back to back,
// walking every instance's 18 circuits in opposite orders. Every cell is a
// result-cache read — no anneal, no pass — so the cost is the cache read
// (disk tier first, memory LRU after), the shard cell codec, framing and
// fair-share dispatch.
#include <atomic>
#include <filesystem>
#include <memory>
#include <thread>

#include "bench.hpp"
#include "cache/cache.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "shard/shard.hpp"
#include "stats.hpp"

namespace perfbench {

using namespace parallax;

namespace {

/// One client's walk over every spec, on the machine the repetition count
/// was calibrated on.
constexpr double kNominalWalkSeconds = 1.7;

/// A serve session: the service over a cache directory and the socket
/// front end on its own thread. The destructor drains it through the
/// server's stop flag and joins the thread.
class Session {
 public:
  Session(const std::string& cache_dir, std::string socket,
          const technique::Registry& registry)
      : socket_(std::move(socket)),
        service_({.n_threads = 1,
                  .cache = cache::CompilationCache::open(
                      {.directory = cache_dir})},
                 registry) {
    server_options_.stop = &stop_;
    // A socket that cannot be bound surfaces as the clients' connect
    // failures, which the run counts.
    server_ = std::thread([this] {
      (void)serve::serve_unix_socket(socket_, service_, server_options_);
    });
    for (int i = 0; i < 2000 && !std::filesystem::exists(socket_); ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ~Session() {
    stop_.store(true);
    server_.join();
  }
  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] serve::SweepService& service() noexcept { return service_; }
  [[nodiscard]] const std::string& socket() const noexcept { return socket_; }

 private:
  std::string socket_;
  serve::SweepService service_;
  serve::ServerOptions server_options_;
  std::atomic<bool> stop_{false};
  std::thread server_;
};

/// What one client measured.
struct ClientLog {
  /// Untraced walks: each request's latency in walk order, then the glue.
  Envelope envelope;
  std::vector<double> walk_seconds;
  std::vector<double> traced_walk_seconds;
  std::vector<double> traced_unattributed;   // per traced walk
  std::vector<double> first_cell_seconds;    // traced requests
  std::vector<std::vector<double>> by_spec;  // every request's latency
  std::size_t walks = 0;
  std::uint64_t requests = 0;
  Checks checks;
  /// The last served outcome per spec (traced runs, first client: for the
  /// replays; kept only there so it stays out of peak_rss_mb).
  std::vector<sweep::Result> last;
};

}  // namespace

Outcome run_warm_serve(const RunConfig& run) {
  Outcome out;
  const std::vector<std::string> techniques = paper_suite_techniques();
  const std::vector<sweep::MachineSpec> machines = paper_machines();
  const technique::Registry& plain = technique::Registry::global();
  const auto tracer = run.trace ? std::make_shared<Tracer>() : nullptr;
  const technique::Registry traced_registry =
      run.trace ? tracing_registry(plain, tracer) : technique::Registry{};

  // One set-up per instance: a cold sweep of its matrix into the shared
  // cache directory, then a session start; the last session is served.
  const std::string cache_dir = "cache";
  std::vector<shard::SweepSpec> specs;
  std::vector<util::Digest128> reference;  // per spec
  std::unique_ptr<Session> session;
  for (std::size_t i = 0; i < kInstances; ++i) {
    session.reset();
    const Nanos start = now_ns();
    const std::vector<sweep::CircuitSpec> circuits =
        paper_suite_circuits(run, i);
    sweep::Options options;
    options.n_threads = 1;
    options.compile.seed = compile_seed(run.seed, i);
    sweep::Options prewarm = options;
    prewarm.cache = cache::CompilationCache::open({.directory = cache_dir});
    const sweep::Result warm =
        sweep::run(circuits, techniques, machines, prewarm, plain);
    prewarm.cache.reset();
    session = std::make_unique<Session>(cache_dir, "serve.sock",
                                        run.trace ? traced_registry : plain);
    out.setup_seconds.push_back(seconds_between(start, now_ns()));
    check_cells(warm, machines, true, out.checks);
    out.quality.add_instance(warm);

    for (std::size_t c = 0; c < circuits.size(); ++c) {
      specs.push_back({{circuits[c]}, techniques, machines, options});
      sweep::Result one;
      for (const sweep::Cell& cell : warm.cells) {
        if (cell.circuit_index != c) continue;
        one.cells.push_back(cell);
        one.cells.back().circuit_index = 0;
      }
      reference.push_back(canonical_digest(one));
    }
  }

  // --- measured phase: two closed-loop clients, a fixed number of walks --
  const std::size_t n = specs.size();
  const std::size_t walks = repetitions(run, kNominalWalkSeconds, 2);
  const cache::CacheStats before = session->service().cache()->stats();
  const Nanos cap = phase_cap(run, now_ns());
  ClientLog logs[2];
  const auto client_loop = [&](std::size_t c) {
    ClientLog& log = logs[c];
    log.by_spec.resize(n);
    log.last.resize(n);
    try {
      serve::Client client(session->socket());
      for (std::size_t walk = 0; walk < walks && now_ns() <= cap; ++walk) {
        const bool traced = traced_round(run, walk);
        std::vector<double> pieces;
        const Nanos walk_start = now_ns();
        for (std::size_t k = 0; k < n; ++k) {
          const std::size_t si = c == 0 ? k : n - 1 - k;
          const shard::SweepSpec& spec = specs[si];
          const std::string& name = spec.circuits.front().name;
          Nanos first = 0;
          const Nanos start = now_ns();
          serve::ClientOutcome outcome =
              traced ? client.run(spec,
                                  [&](const sweep::Cell&) {
                                    if (first == 0) first = now_ns();
                                  })
                     : client.run(spec);
          const double latency = seconds_between(start, now_ns());

          log.checks.attempt();
          ++log.requests;
          bool ok = log.checks.expect(
              outcome.summary.ok(), "request failed: " + outcome.summary.error);
          ok = ok && log.checks.expect(outcome.summary.anneals == 0,
                                       name + ": served request paid an "
                                              "anneal");
          for (const sweep::Cell& cell : outcome.result.cells) {
            ok = ok && log.checks.expect(
                           cell.from_cache,
                           cell_label(cell.circuit, cell.technique,
                                      cell.machine) +
                               ": served cell was not a cache hit");
          }
          // Byte identity is checked on the whole first walk (the disk-tier
          // reads) and on every seventh request after it, which rotates
          // through all specs; encoding the comparison bytes costs about
          // half a request, and checking them all would make the clients'
          // own work a fifth of the walk.
          if (ok && (walk == 0 || (walk * n + k) % 7 == 0)) {
            log.checks.expect(canonical_digest(outcome.result) == reference[si],
                              name + ": served bytes differ from the set-up "
                                     "sweep's");
          }
          log.by_spec[si].push_back(latency);
          pieces.push_back(latency);
          if (traced && first != 0) {
            log.first_cell_seconds.push_back(seconds_between(start, first));
          }
          if (run.trace && c == 0) log.last[si] = std::move(outcome.result);
        }
        const double wall = seconds_between(walk_start, now_ns());
        if (traced) {
          log.traced_walk_seconds.push_back(wall);
          log.traced_unattributed.push_back(wall - sum(pieces));
        } else {
          log.walk_seconds.push_back(wall);
          pieces.push_back(wall - sum(pieces));
          log.envelope.observe(pieces);
        }
        ++log.walks;
      }
      client.quit();
    } catch (const std::exception& error) {
      log.checks.attempt();
      log.checks.fail(std::string("client ") + std::to_string(c) + ": " +
                      error.what());
    }
  };
  std::thread second(client_loop, 1);
  client_loop(0);
  second.join();
  const cache::CacheStats after = session->service().cache()->stats();

  // Each client's walk at its envelope; a request is one (client, spec)
  // pair at its fastest.
  std::vector<double> client_walls;
  std::uint64_t requests = 0;
  for (ClientLog& log : logs) {
    if (log.walks < walks) fail_incomplete(log.checks, log.walks, walks);
    out.checks.merge(log.checks);
    requests += log.requests;
    out.round_seconds.insert(out.round_seconds.end(), log.walk_seconds.begin(),
                             log.walk_seconds.end());
    out.traced_round_seconds.insert(out.traced_round_seconds.end(),
                                    log.traced_walk_seconds.begin(),
                                    log.traced_walk_seconds.end());
    const std::vector<double>& best = log.envelope.pieces();
    if (best.empty()) continue;
    client_walls.push_back(log.envelope.total());
    out.request_seconds.insert(out.request_seconds.end(), best.begin(),
                               best.end() - 1);
  }
  out.wall_seconds = mean(client_walls);
  // Both clients complete a walk in about wall_s, side by side.
  out.cells_per_second = static_cast<double>(2 * n * techniques.size() *
                                             machines.size()) /
                         out.wall_seconds;
  out.meta.emplace_back("walks", std::to_string(walks));
  out.meta.emplace_back("specs", std::to_string(n));
  out.meta.emplace_back("serve_pool_threads",
                        std::to_string(session->service().threads()));
  out.meta.emplace_back("clients", "2");

  if (run.trace && out.checks.failed() == 0) {
    // Per-walk layer values: one client walk serves every spec once.
    std::map<std::string, double> layers;
    const double walks_served =
        static_cast<double>(requests) / static_cast<double>(n);
    const auto per_walk = [&](std::size_t a, std::size_t b) {
      return (static_cast<double>(b) - static_cast<double>(a)) / walks_served;
    };
    layers["cache.result_hits"] = per_walk(before.result_hits, after.result_hits);
    layers["cache.result_misses"] =
        per_walk(before.result_misses, after.result_misses);
    layers["cache.memory_hits"] =
        per_walk(before.store.memory_hits, after.store.memory_hits);
    layers["cache.disk_hits"] =
        per_walk(before.store.disk_hits, after.store.disk_hits);
    layers["cache.stores"] = per_walk(before.store.stores, after.store.stores);
    layers["cache.bytes_read"] =
        per_walk(before.store.bytes_read, after.store.bytes_read);
    layers["cache.bytes_written"] =
        per_walk(before.store.bytes_written, after.store.bytes_written);
    std::vector<double> unattributed = logs[0].traced_unattributed;
    unattributed.insert(unattributed.end(),
                        logs[1].traced_unattributed.begin(),
                        logs[1].traced_unattributed.end());
    layers["trace.unattributed_s"] = median(unattributed);
    std::vector<double> first_cells = logs[0].first_cell_seconds;
    first_cells.insert(first_cells.end(), logs[1].first_cell_seconds.begin(),
                       logs[1].first_cell_seconds.end());
    layers["serve.first_cell_ms_p50"] = median(first_cells) * 1e3;

    // Replays over one walk's requests against the session's cache handle,
    // with both clients gone: the result-cache reads the sweep driver
    // makes, the cell codec, the noise model, and the in-process warm
    // sweep::run of each spec (what serving adds on top of it).
    cache::CompilationCache& session_cache = *session->service().cache();
    double overhead = 0.0;
    double get_result_seconds = 0.0;
    for (std::size_t s = 0; s < n; ++s) {
      const shard::SweepSpec& spec = specs[s];
      sweep::Options options = spec.options;
      options.cache = session->service().cache();
      Nanos start = now_ns();
      const sweep::Result local = sweep::run(spec.circuits, techniques,
                                             machines, options, plain);
      const double local_seconds = seconds_between(start, now_ns());
      std::vector<double> served = logs[0].by_spec[s];
      served.insert(served.end(), logs[1].by_spec[s].begin(),
                    logs[1].by_spec[s].end());
      overhead += median(served) - local_seconds;
      out.checks.attempt();
      out.checks.expect(local.result_cache_hits == local.cells.size(),
                        spec.circuits.front().name +
                            ": in-process warm sweep missed the cache");

      const auto keys = result_keys(spec.circuits, techniques, machines,
                                    spec.options, plain);
      std::size_t hits = 0;
      start = now_ns();
      for (const cache::Digest128& key : keys) {
        hits += session_cache.get_result(key).has_value() ? 1 : 0;
      }
      get_result_seconds += seconds_between(start, now_ns());
      out.checks.expect(hits == keys.size(), spec.circuits.front().name +
                                                 ": get_result replay missed");
      replay_cells(logs[0].last[s], machines, spec.options.noise, layers,
                   out.checks);
    }
    layers["serve.overhead_s"] = overhead;
    layers["cache.get_result_s"] = get_result_seconds;
    out.traced_layers.push_back(std::move(layers));
  }
  session.reset();
  std::error_code ignored;
  std::filesystem::remove_all(cache_dir, ignored);
  return out;
}

}  // namespace perfbench
