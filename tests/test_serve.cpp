// Serve-layer tests. The acceptance core: a repeated SweepSpec submitted to
// a warm SweepService streams cells that reassemble byte-identically (under
// shard::canonical_bytes) to the plain in-process sweep::run output, with
// zero annealing invocations; cancelling an in-flight request stops before
// completing all cells. Around it: request-line and frame codec round trips
// with corruption rejection, the sweep core's on_cell/cancel/pool hooks,
// and the connection loop's fault containment (malformed frames answered
// with kError, the service keeps serving; a lent connection whose reader
// stalls is detached and returns).
//
// The farm suites cover the multi-tenant socket front-end: N concurrent
// clients reassembling byte-identical results over one session, the
// dispatcher's deterministic round-robin across client queues, per-client
// STATS rows summing to the session totals, the in-flight quota's kError,
// slow-reader detachment that never delays the other tenants, and graceful
// drain (STOP / the stop flag) unlinking the socket file.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <latch>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cache/cache.hpp"
#include "cache/serialize.hpp"
#include "cache/store.hpp"
#include "hardware/config.hpp"
#include "pipeline/pipeline.hpp"
#include "placement/graphine.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "shard/shard.hpp"
#include "shard/spec.hpp"
#include "shots/parallelize.hpp"
#include "sweep/sweep.hpp"
#include "technique/registry.hpp"
#include "util/hash.hpp"
#include "util/thread_pool.hpp"

#include "mutation.hpp"

namespace fs = std::filesystem;
namespace pc = parallax::cache;
namespace pcir = parallax::circuit;
namespace ph = parallax::hardware;
namespace pp = parallax::pipeline;
namespace ppl = parallax::placement;
namespace pt = parallax::technique;
namespace pu = parallax::util;
namespace sh = parallax::shard;
namespace sv = parallax::serve;
namespace sw = parallax::sweep;

namespace {

std::string fresh_dir(const std::string& tag) {
  static int counter = 0;
  const fs::path dir = fs::path(::testing::TempDir()) /
                       ("parallax_serve_" + tag + "_" +
                        std::to_string(::getpid()) + "_" +
                        std::to_string(counter++));
  fs::remove_all(dir);
  return dir.string();
}

pcir::Circuit ghz(std::int32_t n, const std::string& name) {
  pcir::Circuit c(n, name);
  c.h(0);
  for (std::int32_t q = 0; q + 1 < n; ++q) c.cx(q, q + 1);
  c.measure_all();
  return c;
}

/// 3 circuits x 2 techniques x 1 machine = 6 cells, annealing kept cheap.
sh::SweepSpec small_spec() {
  sh::SweepSpec spec;
  spec.circuits = {{"ghz8", ghz(8, "ghz8")},
                   {"ghz6", ghz(6, "ghz6")},
                   {"ghz5", ghz(5, "ghz5")}};
  spec.techniques = {"parallax", "static"};
  const auto config = ph::HardwareConfig::quera_aquila_256();
  spec.machines = {{config.name, config}};
  spec.options.compile.placement.anneal_iterations = 120;
  spec.options.compile.placement.local_search_evaluations = 80;
  return spec;
}

/// Reassembles streamed cells into the flat circuit-major Result shape
/// (what the client does), for canonical-bytes comparison.
sw::Result assemble(const sh::SweepSpec& spec,
                    const std::vector<sw::Cell>& cells) {
  sw::Result result;
  result.cells.resize(spec.total_cells());
  for (const auto& cell : cells) {
    const std::size_t flat =
        (cell.circuit_index * spec.techniques.size() + cell.technique_index) *
            spec.machines.size() +
        cell.machine_index;
    result.cells.at(flat) = cell;
  }
  return result;
}

/// Thread-safe on_cell collector.
struct CellCollector {
  std::mutex mutex;
  std::vector<sw::Cell> cells;
  std::function<void(const sw::Cell&)> callback() {
    return [this](const sw::Cell& cell) {
      std::lock_guard lock(mutex);
      cells.push_back(cell);
    };
  }
};

/// Reads one response frame (blocking) through the connection's reader.
sv::Frame read_frame(sv::FrameReader& frames) { return frames.next(); }

/// A server thread that cannot outlive its test. A failed ASSERT returns
/// from the test body early, and a still-joinable std::thread would then
/// std::terminate the whole binary. On scope exit the destructor first runs
/// `unblock`, which must make the server return, and then joins.
class ScopedServer {
 public:
  ScopedServer(std::function<void()> serve, std::function<void()> unblock)
      : unblock_(std::move(unblock)), thread_(std::move(serve)) {}
  ScopedServer(const ScopedServer&) = delete;
  ScopedServer& operator=(const ScopedServer&) = delete;
  ~ScopedServer() {
    if (!thread_.joinable()) return;
    unblock_();
    thread_.join();
  }

  /// Joins a server the test has already asked to return.
  void join() { thread_.join(); }

 private:
  std::function<void()> unblock_;
  std::thread thread_;
};

/// Holds a service's single dispatcher: an in-process request, under a
/// client id no connection uses, whose first cell blocks until release()
/// or scope exit. Requests submitted meanwhile stay queued, and so stay in
/// their connection's in-flight map, for as long as the test needs.
class DispatcherHold {
 public:
  explicit DispatcherHold(sv::SweepService& service)
      : ticket_(service.submit(
            small_spec(), [this](const sw::Cell&) { hold(); }, {}, 0,
            kClientId)) {}
  DispatcherHold(const DispatcherHold&) = delete;
  DispatcherHold& operator=(const DispatcherHold&) = delete;
  ~DispatcherHold() {
    release();
    (void)ticket_->wait();
  }

  /// True once the hold's first cell is blocking the dispatcher.
  [[nodiscard]] bool holding() {
    return started_future_.wait_for(std::chrono::seconds(60)) ==
           std::future_status::ready;
  }

  void release() {
    std::call_once(release_once_, [this] { released_.count_down(); });
  }

 private:
  static constexpr std::uint64_t kClientId = 1u << 30;

  void hold() {
    std::call_once(start_once_, [this] { started_.set_value(); });
    released_.wait();
  }

  std::promise<void> started_;
  std::future<void> started_future_ = started_.get_future();
  std::once_flag start_once_, release_once_;
  std::latch released_{1};
  // Last: its callback uses every member above.
  std::shared_ptr<sv::Ticket> ticket_;
};

}  // namespace

// --- protocol: request lines --------------------------------------------------

TEST(ServeProtocol, SubmitLineRoundTrips) {
  const sh::SweepSpec spec = small_spec();
  std::string line = sv::submit_line(42, spec);
  ASSERT_EQ(line.back(), '\n');
  line.pop_back();
  const sv::RequestLine parsed = sv::parse_request_line(line);
  EXPECT_EQ(parsed.verb, sv::RequestLine::Verb::kSubmit);
  EXPECT_EQ(parsed.id, 42u);
  EXPECT_EQ(sh::spec_digest(parsed.spec), sh::spec_digest(spec));
}

TEST(ServeProtocol, CancelAndQuitLinesRoundTrip) {
  EXPECT_EQ(sv::parse_request_line("CANCEL 7").verb,
            sv::RequestLine::Verb::kCancel);
  EXPECT_EQ(sv::parse_request_line("CANCEL 7").id, 7u);
  EXPECT_EQ(sv::parse_request_line("QUIT").verb, sv::RequestLine::Verb::kQuit);
}

TEST(ServeProtocol, MalformedRequestLinesAreRejected) {
  EXPECT_THROW((void)sv::parse_request_line(""), sv::ServeError);
  EXPECT_THROW((void)sv::parse_request_line("FROBNICATE 1 aa"),
               sv::ServeError);
  EXPECT_THROW((void)sv::parse_request_line("SUBMIT banana aa"),
               sv::ServeError);
  EXPECT_THROW((void)sv::parse_request_line("SUBMIT -3 aa"), sv::ServeError);
  EXPECT_THROW((void)sv::parse_request_line("SUBMIT 1 nothex!"),
               sv::ServeError);
  EXPECT_THROW((void)sv::parse_request_line("SUBMIT 1 abc"),  // odd length
               sv::ServeError);
  EXPECT_THROW((void)sv::parse_request_line("SUBMIT 1"), sv::ServeError);
  EXPECT_THROW((void)sv::parse_request_line("CANCEL"), sv::ServeError);
  EXPECT_THROW((void)sv::parse_request_line("CANCEL 1 2"), sv::ServeError);
  EXPECT_THROW((void)sv::parse_request_line("QUIT now"), sv::ServeError);
  // Well-formed hex, corrupt payload underneath.
  EXPECT_THROW((void)sv::parse_request_line("SUBMIT 1 deadbeef"),
               pc::ReadError);
}

TEST(ServeProtocol, CorruptSpecPayloadIsRejectedNotDecoded) {
  const sh::SweepSpec spec = small_spec();
  std::string bytes = sh::serialize_sweep_spec(spec);
  EXPECT_EQ(sh::spec_digest(sh::parse_sweep_spec(bytes)),
            sh::spec_digest(spec));
  // Any single flipped byte must fail parse, never decode garbage.
  for (const std::size_t pos :
       {std::size_t{0}, bytes.size() / 2, bytes.size() - 1}) {
    std::string corrupt = bytes;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x40);
    EXPECT_THROW((void)sh::parse_sweep_spec(corrupt), pc::ReadError);
  }
  // Truncation.
  EXPECT_THROW((void)sh::parse_sweep_spec(
                   std::string_view(bytes).substr(0, bytes.size() - 3)),
               pc::ReadError);
  // A shard spec is not a sweep spec (kind mismatch).
  EXPECT_THROW(
      (void)sh::parse_sweep_spec(sh::serialize_shard_spec({spec, 0, 2})),
      pc::ReadError);
}

TEST(ServeProtocol, HexRoundTrips) {
  const std::string bytes("\x00\x7f\xff\x10 hello", 9);
  const auto decoded = sv::hex_decode(sv::hex_encode(bytes));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, bytes);
  EXPECT_FALSE(sv::hex_decode("abc").has_value());
  EXPECT_FALSE(sv::hex_decode("zz").has_value());
  EXPECT_TRUE(sv::hex_decode("AbCd").has_value());
}

// --- protocol: response frames ------------------------------------------------

TEST(ServeProtocol, FramesRoundTrip) {
  sw::Cell cell;
  cell.circuit = "ghz8";
  cell.technique = "parallax";
  cell.machine = "quera-256";
  cell.circuit_index = 2;
  cell.technique_index = 1;
  cell.origin = "serve-test";
  cell.from_cache = true;
  cell.compile_seconds = 0.25;
  const std::string bytes = sv::cell_frame(9, cell);
  const auto header = sv::parse_frame_header(
      std::string_view(bytes).substr(0, sv::kFrameHeaderBytes));
  const sv::Frame frame = sv::decode_frame(
      header, std::string_view(bytes).substr(sv::kFrameHeaderBytes));
  EXPECT_EQ(frame.type, sv::FrameType::kCell);
  EXPECT_EQ(frame.request_id, 9u);
  EXPECT_EQ(frame.cell.circuit, "ghz8");
  EXPECT_EQ(frame.cell.circuit_index, 2u);
  EXPECT_TRUE(frame.cell.from_cache);
  EXPECT_EQ(frame.cell.origin, "serve-test");

  sv::Summary summary;
  summary.total_cells = 6;
  summary.executed_cells = 4;
  summary.cancelled_cells = 2;
  summary.result_cache_hits = 3;
  summary.anneals = 1;
  summary.cancelled = true;
  summary.wall_seconds = 1.5;
  summary.error = "nope";
  const std::string done = sv::done_frame(9, summary);
  const sv::Frame done_parsed = sv::decode_frame(
      sv::parse_frame_header(
          std::string_view(done).substr(0, sv::kFrameHeaderBytes)),
      std::string_view(done).substr(sv::kFrameHeaderBytes));
  EXPECT_EQ(done_parsed.type, sv::FrameType::kDone);
  EXPECT_EQ(done_parsed.summary.total_cells, 6u);
  EXPECT_EQ(done_parsed.summary.cancelled_cells, 2u);
  EXPECT_TRUE(done_parsed.summary.cancelled);
  EXPECT_EQ(done_parsed.summary.error, "nope");

  const std::string error = sv::error_frame(0, "bad line");
  const sv::Frame error_parsed = sv::decode_frame(
      sv::parse_frame_header(
          std::string_view(error).substr(0, sv::kFrameHeaderBytes)),
      std::string_view(error).substr(sv::kFrameHeaderBytes));
  EXPECT_EQ(error_parsed.type, sv::FrameType::kError);
  EXPECT_EQ(error_parsed.message, "bad line");
}

TEST(ServeProtocol, CorruptFramesAreRejected) {
  const std::string bytes = sv::error_frame(1, "hello");
  // Bad magic.
  {
    std::string corrupt = bytes;
    corrupt[0] = static_cast<char>(corrupt[0] ^ 1);
    EXPECT_THROW((void)sv::parse_frame_header(std::string_view(corrupt).substr(
                     0, sv::kFrameHeaderBytes)),
                 sv::ServeError);
  }
  // Payload checksum mismatch.
  {
    std::string corrupt = bytes;
    corrupt.back() = static_cast<char>(corrupt.back() ^ 1);
    const auto header = sv::parse_frame_header(
        std::string_view(corrupt).substr(0, sv::kFrameHeaderBytes));
    EXPECT_THROW(
        (void)sv::decode_frame(
            header, std::string_view(corrupt).substr(sv::kFrameHeaderBytes)),
        sv::ServeError);
  }
  // Wrong header size.
  EXPECT_THROW((void)sv::parse_frame_header("short"), sv::ServeError);
}

// --- sweep core hooks ---------------------------------------------------------

TEST(SweepHooks, OnCellFiresOncePerExecutedCellOnExternalPool) {
  const sh::SweepSpec spec = small_spec();
  pu::ThreadPool pool(2);
  sw::Options options = spec.options;
  options.pool = &pool;
  CellCollector collector;
  options.on_cell = collector.callback();
  const sw::Result result =
      sw::run(spec.circuits, spec.techniques, spec.machines, options);
  EXPECT_EQ(result.threads_used, 2u);
  EXPECT_FALSE(result.cancelled);
  ASSERT_EQ(collector.cells.size(), spec.total_cells());
  EXPECT_EQ(sh::canonical_bytes(assemble(spec, collector.cells)),
            sh::canonical_bytes(result));
}

TEST(SweepHooks, PreCancelledTokenRunsNothing) {
  const sh::SweepSpec spec = small_spec();
  sw::Options options = spec.options;
  options.cancel = std::make_shared<std::atomic<bool>>(true);
  std::atomic<std::size_t> streamed{0};
  options.on_cell = [&](const sw::Cell&) { ++streamed; };
  const std::uint64_t anneals_before = ppl::annealing_invocations();
  const sw::Result result =
      sw::run(spec.circuits, spec.techniques, spec.machines, options);
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(streamed.load(), 0u);
  EXPECT_EQ(ppl::annealing_invocations(), anneals_before);
  for (const auto& cell : result.cells) {
    EXPECT_TRUE(cell.cancelled);
    EXPECT_EQ(cell.circuit, spec.circuits[cell.circuit_index].name);
  }
}

// --- service ------------------------------------------------------------------

TEST(SweepService, StreamedCellsMatchInProcessSweepByteForByte) {
  const sh::SweepSpec spec = small_spec();
  const sw::Result reference =
      sw::run(spec.circuits, spec.techniques, spec.machines, spec.options);

  sv::SweepService service({.n_threads = 2, .cache = nullptr});
  CellCollector collector;
  const auto ticket = service.submit(spec, collector.callback());
  const sv::Summary& summary = ticket->wait();
  ASSERT_TRUE(summary.ok()) << summary.error;
  EXPECT_EQ(summary.total_cells, spec.total_cells());
  EXPECT_EQ(summary.executed_cells, spec.total_cells());
  EXPECT_EQ(summary.failed_cells, 0u);
  EXPECT_EQ(sh::canonical_bytes(assemble(spec, collector.cells)),
            sh::canonical_bytes(reference));
}

TEST(SweepService, WarmRepeatStreamsIdenticalCellsWithZeroAnneals) {
  const sh::SweepSpec spec = small_spec();
  const sw::Result reference =
      sw::run(spec.circuits, spec.techniques, spec.machines, spec.options);

  sv::ServiceOptions service_options;
  service_options.n_threads = 2;
  service_options.cache =
      pc::CompilationCache::open({.directory = fresh_dir("warm")});
  sv::SweepService service(service_options);

  const sv::Summary& cold = service.submit(spec)->wait();
  ASSERT_TRUE(cold.ok()) << cold.error;
  EXPECT_GT(cold.anneals, 0u);
  EXPECT_EQ(cold.result_cache_hits, 0u);

  CellCollector collector;
  const sv::Summary& warm =
      service.submit(spec, collector.callback())->wait();
  ASSERT_TRUE(warm.ok()) << warm.error;
  EXPECT_EQ(warm.anneals, 0u);  // the acceptance criterion
  EXPECT_EQ(warm.result_cache_hits, spec.total_cells());
  EXPECT_EQ(warm.result_cache_misses, 0u);
  EXPECT_EQ(sh::canonical_bytes(assemble(spec, collector.cells)),
            sh::canonical_bytes(reference));
  for (const auto& cell : collector.cells) EXPECT_TRUE(cell.from_cache);
}

TEST(SweepService, OverlappingSubmissionsShareOneColdCompile) {
  const sh::SweepSpec spec = small_spec();
  sv::ServiceOptions service_options;
  service_options.n_threads = 2;
  service_options.cache =
      pc::CompilationCache::open({.directory = fresh_dir("overlap")});
  sv::SweepService service(service_options);

  // Both enqueued before either runs: FIFO execution + the session cache
  // must make the second a pure replay.
  const auto first = service.submit(spec);
  const auto second = service.submit(spec);
  const sv::Summary& s1 = first->wait();
  const sv::Summary& s2 = second->wait();
  ASSERT_TRUE(s1.ok()) << s1.error;
  ASSERT_TRUE(s2.ok()) << s2.error;
  EXPECT_GT(s1.anneals, 0u);
  EXPECT_EQ(s2.anneals, 0u);
  EXPECT_EQ(s2.result_cache_hits, spec.total_cells());
}

TEST(SweepService, ASecondIdenticalSubmitTranspilesNothingAndFramesAlike) {
  // One handle warms every result on disk; the service runs on a fresh
  // handle, so its first request hits every result but still transpiles
  // each circuit once, and the second does neither.
  const sh::SweepSpec spec = small_spec();
  const std::string dir = fresh_dir("transpile_map");
  {
    sw::Options options = spec.options;
    options.cache = pc::CompilationCache::open({.directory = dir});
    (void)sw::run(spec.circuits, spec.techniques, spec.machines, options);
  }
  const auto cache = pc::CompilationCache::open({.directory = dir});
  sv::SweepService service({.n_threads = 2, .cache = cache});
  // The kCell frames the server would write, keyed by flat cell index,
  // with the wall-clock compile_seconds zeroed.
  const auto served_frames = [&] {
    std::mutex mutex;
    std::map<std::size_t, std::string> frames;
    const sv::Summary summary =
        service
            .submit(spec, {}, {}, 1, 1,
                    [&](const sw::Cell& cell, const pc::ScannedCell& cached) {
                      sw::Cell timeless = cell;
                      timeless.compile_seconds = 0.0;
                      const std::size_t flat =
                          cell.circuit_index * spec.techniques.size() +
                          cell.technique_index;
                      std::lock_guard lock(mutex);
                      frames[flat] = sv::cell_frame(1, timeless, cached);
                    })
            ->wait();
    EXPECT_TRUE(summary.ok()) << summary.error;
    EXPECT_EQ(summary.result_cache_hits, spec.total_cells());
    return frames;
  };

  const auto first = served_frames();
  EXPECT_EQ(cache->stats().transpiles_run, spec.circuits.size());
  EXPECT_EQ(cache->stats().transpiles_skipped, 0u);
  const auto second = served_frames();
  EXPECT_EQ(cache->stats().transpiles_run, spec.circuits.size());
  EXPECT_EQ(cache->stats().transpiles_skipped, spec.circuits.size());
  EXPECT_EQ(first.size(), spec.total_cells());
  EXPECT_TRUE(second == first);
}

TEST(SweepService, CancellationStopsBeforeCompletingAllCells) {
  const sh::SweepSpec spec = small_spec();  // 6 cells
  // One worker: cells run strictly one at a time, so cancelling from the
  // first completion deterministically leaves the rest unstarted.
  sv::SweepService service({.n_threads = 1, .cache = nullptr});

  std::mutex mutex;
  std::condition_variable cv;
  std::shared_ptr<sv::Ticket> ticket;
  std::atomic<std::size_t> streamed{0};
  const auto on_cell = [&](const sw::Cell&) {
    ++streamed;
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return ticket != nullptr; });
    ticket->cancel();
  };
  auto submitted = service.submit(spec, on_cell);
  {
    std::lock_guard lock(mutex);
    ticket = submitted;
  }
  cv.notify_all();
  const sv::Summary& summary = submitted->wait();
  EXPECT_TRUE(summary.cancelled);
  EXPECT_EQ(summary.executed_cells, 1u);
  EXPECT_EQ(summary.cancelled_cells, spec.total_cells() - 1);
  EXPECT_EQ(streamed.load(), 1u);
}

TEST(SweepService, CancellingAQueuedRequestRunsNothing) {
  const sh::SweepSpec spec = small_spec();
  sv::SweepService service({.n_threads = 1, .cache = nullptr});
  const auto running = service.submit(spec);
  const auto queued = service.submit(spec);
  queued->cancel();
  const sv::Summary& queued_summary = queued->wait();
  EXPECT_TRUE(queued_summary.cancelled);
  EXPECT_EQ(queued_summary.executed_cells, 0u);
  EXPECT_EQ(queued_summary.cancelled_cells, spec.total_cells());
  EXPECT_TRUE(running->wait().ok());
}

TEST(SweepService, UnknownTechniqueFailsTheRequestNotTheService) {
  sh::SweepSpec bad = small_spec();
  bad.techniques.push_back("nope");
  sv::SweepService service({.n_threads = 1, .cache = nullptr});
  const sv::Summary& failed = service.submit(bad)->wait();
  EXPECT_FALSE(failed.ok());
  EXPECT_NE(failed.error.find("nope"), std::string::npos);
  // The service survives and serves the next request.
  const sv::Summary& good = service.submit(small_spec())->wait();
  EXPECT_TRUE(good.ok()) << good.error;
}

// --- connection loop ----------------------------------------------------------

namespace {

struct PipePair {
  int in[2];   // test writes requests -> server reads
  int out[2];  // server writes frames -> test reads
  PipePair() {
    EXPECT_EQ(::pipe(in), 0);
    EXPECT_EQ(::pipe(out), 0);
  }
  ~PipePair() {
    for (const int fd : {in[0], in[1], out[0], out[1]}) {
      if (fd >= 0) ::close(fd);
    }
  }
  void close_request_end() {
    ::close(in[1]);
    in[1] = -1;
  }
  /// Makes a serve_connection over these pipes return: EOF on its requests,
  /// and every frame it still writes drained until it closes its output end
  /// (so a server with frames to flush never blocks on a full pipe).
  void unblock_server() {
    if (in[1] >= 0) close_request_end();
    char sink[4096];
    while (::read(out[0], sink, sizeof(sink)) > 0) {
    }
  }
};

}  // namespace

TEST(ServeConnection, MalformedLinesGetErrorFramesAndServiceSurvives) {
  const sh::SweepSpec spec = small_spec();
  sv::SweepService service({.n_threads = 2, .cache = nullptr});
  PipePair pipes;
  sv::FrameReader frames(pipes.out[0]);
  ScopedServer server(
      [&] {
        (void)sv::serve_connection(pipes.in[0], pipes.out[1], service);
        ::close(pipes.out[1]);
        pipes.out[1] = -1;
      },
      [&] { pipes.unblock_server(); });

  // Garbage verb, bad hex, and an unknown CANCEL id: three error frames,
  // connection stays up.
  ASSERT_TRUE(sv::write_all(pipes.in[1], "FROBNICATE 1 aa\n"));
  sv::Frame frame = read_frame(frames);
  EXPECT_EQ(frame.type, sv::FrameType::kError);
  EXPECT_EQ(frame.request_id, 1u);

  ASSERT_TRUE(sv::write_all(pipes.in[1], "SUBMIT 7 nothex!\n"));
  frame = read_frame(frames);
  EXPECT_EQ(frame.type, sv::FrameType::kError);
  EXPECT_EQ(frame.request_id, 7u);

  ASSERT_TRUE(sv::write_all(pipes.in[1], "CANCEL 99\n"));
  frame = read_frame(frames);
  EXPECT_EQ(frame.type, sv::FrameType::kError);
  EXPECT_EQ(frame.request_id, 99u);

  // A corrupt spec payload (valid hex, flipped byte) is rejected per-line.
  std::string corrupt_spec = sh::serialize_sweep_spec(spec);
  corrupt_spec[corrupt_spec.size() / 2] ^= 0x20;
  ASSERT_TRUE(sv::write_all(
      pipes.in[1], "SUBMIT 8 " + sv::hex_encode(corrupt_spec) + "\n"));
  frame = read_frame(frames);
  EXPECT_EQ(frame.type, sv::FrameType::kError);
  EXPECT_EQ(frame.request_id, 8u);

  // After all that abuse, a valid request is served: N cells + done.
  ASSERT_TRUE(sv::write_all(pipes.in[1], sv::submit_line(9, spec)));
  std::size_t cells = 0;
  for (;;) {
    frame = read_frame(frames);
    ASSERT_EQ(frame.request_id, 9u);
    if (frame.type == sv::FrameType::kDone) break;
    ASSERT_EQ(frame.type, sv::FrameType::kCell);
    ++cells;
  }
  EXPECT_EQ(cells, spec.total_cells());
  EXPECT_TRUE(frame.summary.ok());

  ASSERT_TRUE(sv::write_all(pipes.in[1], sv::quit_line()));
  server.join();
}

TEST(ServeConnection, EofDrainsInFlightRequestsBeforeReturning) {
  const sh::SweepSpec spec = small_spec();
  sv::SweepService service({.n_threads = 2, .cache = nullptr});
  PipePair pipes;
  sv::FrameReader frames(pipes.out[0]);
  const int in_flags = ::fcntl(pipes.in[0], F_GETFL);
  const int out_flags = ::fcntl(pipes.out[1], F_GETFL);
  ScopedServer server(
      [&] {
        EXPECT_EQ(sv::serve_connection(pipes.in[0], pipes.out[1], service),
                  1u);
        // The lent fds get the caller's flags back.
        EXPECT_EQ(::fcntl(pipes.in[0], F_GETFL), in_flags);
        EXPECT_EQ(::fcntl(pipes.out[1], F_GETFL), out_flags);
        ::close(pipes.out[1]);
        pipes.out[1] = -1;
      },
      [&] { pipes.unblock_server(); });
  // Batch shape: submit, close input immediately, then consume the frames.
  ASSERT_TRUE(sv::write_all(pipes.in[1], sv::submit_line(1, spec)));
  pipes.close_request_end();
  std::size_t cells = 0;
  sv::Frame frame;
  for (;;) {
    frame = read_frame(frames);
    if (frame.type == sv::FrameType::kDone) break;
    ++cells;
  }
  EXPECT_EQ(cells, spec.total_cells());
  EXPECT_TRUE(frame.summary.ok());
  server.join();
}

// --- client + server end to end -----------------------------------------------

TEST(ServeEndToEnd, ClientReassemblyIsByteIdenticalAndWarmRepeatIsFree) {
  const sh::SweepSpec spec = small_spec();
  const sw::Result reference =
      sw::run(spec.circuits, spec.techniques, spec.machines, spec.options);

  sv::ServiceOptions service_options;
  service_options.n_threads = 2;
  service_options.cache =
      pc::CompilationCache::open({.directory = fresh_dir("e2e")});
  sv::SweepService service(service_options);

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // The server end stays open until after the join, so the unblocker can
  // shut it down (reads see EOF, writes fail) without racing a close.
  ScopedServer server(
      [&] { (void)sv::serve_connection(fds[0], fds[0], service); },
      [&] { ::shutdown(fds[0], SHUT_RDWR); });
  {
    sv::Client client(fds[1]);  // adopts + closes fds[1]

    std::atomic<std::size_t> streamed{0};
    const sv::ClientOutcome cold =
        client.run(spec, [&](const sw::Cell&) { ++streamed; });
    ASSERT_TRUE(cold.summary.ok()) << cold.summary.error;
    EXPECT_EQ(streamed.load(), spec.total_cells());
    EXPECT_GT(cold.summary.anneals, 0u);
    EXPECT_EQ(sh::canonical_bytes(cold.result),
              sh::canonical_bytes(reference));

    // Same connection, same spec: the session serves it without compiling.
    const sv::ClientOutcome warm = client.run(spec);
    ASSERT_TRUE(warm.summary.ok()) << warm.summary.error;
    EXPECT_EQ(warm.summary.anneals, 0u);
    EXPECT_EQ(warm.summary.result_cache_hits, spec.total_cells());
    EXPECT_EQ(sh::canonical_bytes(warm.result),
              sh::canonical_bytes(reference));
    EXPECT_EQ(warm.result.at("ghz8", "parallax").result.stats.cz_gates,
              reference.at("ghz8", "parallax").result.stats.cz_gates);

    client.quit();
  }
  server.join();
  ::close(fds[0]);
}

// The reassembly behind serve::Client::run: it refuses a repeated cell and
// a cell outside the matrix, and labels every cell a cancelled request
// never streamed.
TEST(ServeReassembly, RefusesBadCellsAndLabelsTheUnstreamed) {
  const sh::SweepSpec spec = small_spec();  // 3 circuits x 2 techniques
  const auto streamed = [](std::size_t circuit, std::size_t technique,
                           std::size_t machine) {
    sw::Cell cell;
    cell.circuit = "streamed";
    cell.circuit_index = circuit;
    cell.technique_index = technique;
    cell.machine_index = machine;
    return cell;
  };
  const auto refusal = [](sv::Reassembly& reassembly, sw::Cell cell) {
    try {
      (void)reassembly.place(std::move(cell));
    } catch (const sv::ServeError& error) {
      return std::string(error.what());
    }
    return std::string("accepted");
  };

  sv::Reassembly reassembly(spec);
  EXPECT_EQ(reassembly.place(streamed(1, 1, 0)).circuit, "streamed");
  EXPECT_EQ(refusal(reassembly, streamed(1, 1, 0)),
            "server streamed the same cell twice");
  for (const sw::Cell& outside :
       {streamed(3, 0, 0), streamed(0, 2, 0), streamed(0, 0, 1)}) {
    EXPECT_EQ(refusal(reassembly, outside),
              "streamed cell indexes outside the request matrix");
  }

  sv::Summary summary;
  summary.cancelled = true;
  summary.result_cache_hits = 1;
  summary.result_cache_misses = 2;
  summary.placement_disk_hits = 3;
  summary.anneals = 4;
  summary.wall_seconds = 0.5;
  const sw::Result result = std::move(reassembly).finish(summary);
  EXPECT_TRUE(result.cancelled);
  EXPECT_EQ(result.result_cache_hits, 1u);
  EXPECT_EQ(result.result_cache_misses, 2u);
  EXPECT_EQ(result.placement_disk_hits, 3u);
  EXPECT_EQ(result.anneals, 4u);
  EXPECT_EQ(result.wall_seconds, 0.5);
  ASSERT_EQ(result.cells.size(), spec.total_cells());
  for (std::size_t flat = 0; flat < result.cells.size(); ++flat) {
    SCOPED_TRACE("cell " + std::to_string(flat));
    const sw::Cell& cell = result.cells[flat];
    EXPECT_EQ(cell.circuit_index, flat / 2);
    EXPECT_EQ(cell.technique_index, flat % 2);
    EXPECT_EQ(cell.machine_index, 0u);
    EXPECT_FALSE(cell.skipped);
    if (flat == 3) {
      EXPECT_EQ(cell.circuit, "streamed");
      EXPECT_FALSE(cell.cancelled);
      continue;
    }
    EXPECT_EQ(cell.circuit, spec.circuits[flat / 2].name);
    EXPECT_EQ(cell.technique, spec.techniques[flat % 2]);
    EXPECT_EQ(cell.machine, spec.machines[0].name);
    EXPECT_TRUE(cell.cancelled);
  }

  // A request that completed without streaming a cell leaves it skipped.
  sv::Reassembly partial(spec);
  const sw::Result skipped = std::move(partial).finish(sv::Summary{});
  EXPECT_FALSE(skipped.cancelled);
  for (const sw::Cell& cell : skipped.cells) {
    EXPECT_TRUE(cell.skipped);
    EXPECT_FALSE(cell.cancelled);
  }
}

TEST(ServeEndToEnd, ServiceShutdownReleasesWaitersAsCancelled) {
  const sh::SweepSpec spec = small_spec();
  std::shared_ptr<sv::Ticket> running;
  std::shared_ptr<sv::Ticket> queued;
  {
    sv::SweepService service({.n_threads = 1, .cache = nullptr});
    running = service.submit(spec);
    queued = service.submit(spec);
    // Destructor cancels both and drains the queue.
  }
  EXPECT_TRUE(running->done());
  EXPECT_TRUE(queued->done());
  EXPECT_TRUE(queued->wait().cancelled);
}

// --- STATS: session-wide accounting over the wire -----------------------------

TEST(ServeProtocol, StatsLineRoundTrips) {
  const sv::RequestLine parsed = sv::parse_request_line("STATS 9");
  EXPECT_EQ(parsed.verb, sv::RequestLine::Verb::kStats);
  EXPECT_EQ(parsed.id, 9u);
  std::string line = sv::stats_line(9);
  ASSERT_EQ(line.back(), '\n');
  line.pop_back();
  EXPECT_EQ(sv::parse_request_line(line).verb, sv::RequestLine::Verb::kStats);
  EXPECT_THROW((void)sv::parse_request_line("STATS"), sv::ServeError);
  EXPECT_THROW((void)sv::parse_request_line("STATS banana"), sv::ServeError);
  EXPECT_THROW((void)sv::parse_request_line("STATS 1 2"), sv::ServeError);
}

TEST(ServeProtocol, StatsFrameRoundTrips) {
  sv::SessionStats stats;
  stats.requests = 3;
  stats.cells_executed = 42;
  stats.cells_failed = 1;
  stats.result_cache_hits = 30;
  stats.result_cache_misses = 12;
  stats.placement_cache_hits = 7;
  stats.placement_cache_misses = 5;
  stats.anneals = 5;
  stats.threads = 4;
  stats.cache_enabled = true;
  stats.uptime_seconds = 12.5;
  const std::string frame = sv::stats_frame(11, stats);
  const sv::FrameHeader header =
      sv::parse_frame_header(frame.substr(0, sv::kFrameHeaderBytes));
  EXPECT_EQ(header.type, sv::FrameType::kStats);
  const sv::Frame decoded =
      sv::decode_frame(header, frame.substr(sv::kFrameHeaderBytes));
  EXPECT_EQ(decoded.request_id, 11u);
  EXPECT_EQ(decoded.stats.requests, 3u);
  EXPECT_EQ(decoded.stats.cells_executed, 42u);
  EXPECT_EQ(decoded.stats.cells_failed, 1u);
  EXPECT_EQ(decoded.stats.result_cache_hits, 30u);
  EXPECT_EQ(decoded.stats.result_cache_misses, 12u);
  EXPECT_EQ(decoded.stats.placement_cache_hits, 7u);
  EXPECT_EQ(decoded.stats.placement_cache_misses, 5u);
  EXPECT_EQ(decoded.stats.anneals, 5u);
  EXPECT_EQ(decoded.stats.threads, 4u);
  EXPECT_TRUE(decoded.stats.cache_enabled);
  EXPECT_DOUBLE_EQ(decoded.stats.uptime_seconds, 12.5);

  // Corruption is rejected like every other frame type.
  std::string corrupt = frame;
  corrupt[sv::kFrameHeaderBytes + 2] ^= 0x40;
  EXPECT_THROW(
      (void)sv::decode_frame(
          sv::parse_frame_header(corrupt.substr(0, sv::kFrameHeaderBytes)),
          corrupt.substr(sv::kFrameHeaderBytes)),
      sv::ServeError);
}

TEST(SweepService, SessionStatsAccumulateAcrossRequests) {
  const sh::SweepSpec spec = small_spec();
  sv::ServiceOptions service_options;
  service_options.n_threads = 2;
  service_options.cache =
      pc::CompilationCache::open({.directory = fresh_dir("stats")});
  sv::SweepService service(service_options);

  const sv::SessionStats fresh = service.session_stats();
  EXPECT_EQ(fresh.requests, 0u);
  EXPECT_EQ(fresh.cells_executed, 0u);
  EXPECT_TRUE(fresh.cache_enabled);
  EXPECT_EQ(fresh.threads, 2u);

  (void)service.submit(spec)->wait();
  const sv::SessionStats cold = service.session_stats();
  EXPECT_EQ(cold.requests, 1u);
  EXPECT_EQ(cold.cells_executed, spec.total_cells());
  EXPECT_EQ(cold.cells_failed, 0u);
  EXPECT_GT(cold.anneals, 0u);

  // A warm repeat adds cells and result hits but no anneals.
  (void)service.submit(spec)->wait();
  const sv::SessionStats warm = service.session_stats();
  EXPECT_EQ(warm.requests, 2u);
  EXPECT_EQ(warm.cells_executed, 2 * spec.total_cells());
  EXPECT_EQ(warm.anneals, cold.anneals);
  EXPECT_GE(warm.result_cache_hits, spec.total_cells());
  EXPECT_GE(warm.uptime_seconds, 0.0);
}

TEST(ServeEndToEnd, ClientStatsQueriesTheSession) {
  const sh::SweepSpec spec = small_spec();
  sv::SweepService service({.n_threads = 2, .cache = nullptr});
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  // The server end stays open until after the join, so the unblocker can
  // shut it down (reads see EOF, writes fail) without racing a close.
  ScopedServer server(
      [&] { (void)sv::serve_connection(fds[0], fds[0], service); },
      [&] { ::shutdown(fds[0], SHUT_RDWR); });
  {
    sv::Client client(fds[1]);
    const sv::SessionStats before = client.stats();
    EXPECT_EQ(before.requests, 0u);
    EXPECT_FALSE(before.cache_enabled);

    const sv::ClientOutcome outcome = client.run(spec);
    ASSERT_TRUE(outcome.summary.ok()) << outcome.summary.error;

    const sv::SessionStats after = client.stats();
    EXPECT_EQ(after.requests, 1u);
    EXPECT_EQ(after.cells_executed, spec.total_cells());
    EXPECT_EQ(after.anneals, outcome.summary.anneals);
    client.quit();
  }
  server.join();
  ::close(fds[0]);
}

// --- protocol v3: STOP, per-client stats rows, in-place line parsing ----------

TEST(ServeProtocol, StopLineRoundTrips) {
  const sv::RequestLine parsed = sv::parse_request_line("STOP 4");
  EXPECT_EQ(parsed.verb, sv::RequestLine::Verb::kStop);
  EXPECT_EQ(parsed.id, 4u);
  std::string line = sv::stop_line(4);
  ASSERT_EQ(line.back(), '\n');
  line.pop_back();
  EXPECT_EQ(sv::parse_request_line(line).verb, sv::RequestLine::Verb::kStop);
  EXPECT_THROW((void)sv::parse_request_line("STOP"), sv::ServeError);
  EXPECT_THROW((void)sv::parse_request_line("STOP banana"), sv::ServeError);
  EXPECT_THROW((void)sv::parse_request_line("STOP 1 2"), sv::ServeError);
}

TEST(ServeProtocol, StatsFrameCarriesPerClientRows) {
  sv::SessionStats stats;
  stats.requests = 5;
  stats.cells_executed = 30;
  stats.anneals = 7;
  sv::ClientStats alpha;
  alpha.client_id = 1;
  alpha.requests = 3;
  alpha.cells_executed = 18;
  alpha.anneals = 7;
  alpha.bytes_queued = 4096;
  alpha.connected_seconds = 2.5;
  alpha.connected = true;
  sv::ClientStats beta;
  beta.client_id = 9;
  beta.requests = 2;
  beta.cells_executed = 12;
  stats.clients = {alpha, beta};

  const std::string frame = sv::stats_frame(3, stats);
  const sv::Frame decoded = sv::decode_frame(
      sv::parse_frame_header(frame.substr(0, sv::kFrameHeaderBytes)),
      frame.substr(sv::kFrameHeaderBytes));
  ASSERT_EQ(decoded.stats.clients.size(), 2u);
  const sv::ClientStats& first = decoded.stats.clients[0];
  EXPECT_EQ(first.client_id, 1u);
  EXPECT_EQ(first.requests, 3u);
  EXPECT_EQ(first.cells_executed, 18u);
  EXPECT_EQ(first.anneals, 7u);
  EXPECT_EQ(first.bytes_queued, 4096u);
  EXPECT_DOUBLE_EQ(first.connected_seconds, 2.5);
  EXPECT_TRUE(first.connected);
  const sv::ClientStats& second = decoded.stats.clients[1];
  EXPECT_EQ(second.client_id, 9u);
  EXPECT_EQ(second.requests, 2u);
  EXPECT_EQ(second.bytes_queued, 0u);
  EXPECT_FALSE(second.connected);
}

TEST(ServeProtocol, MultiMegabyteSubmitLineParsesInPlace) {
  // A sweep whose hex payload crosses 4 MiB: the tokenizer must hand the
  // payload to the decoder without copying the line into a stream first
  // (the regression this guards was an istringstream copy of the whole
  // line per request).
  sh::SweepSpec spec = small_spec();
  spec.techniques = {"parallax"};
  std::string line;
  for (std::size_t reps = 1u << 13; reps <= (1u << 18); reps *= 2) {
    pcir::Circuit big(8, "big");
    big.h(0);
    for (std::size_t rep = 0; rep < reps; ++rep) {
      for (std::int32_t q = 0; q + 1 < 8; ++q) big.cx(q, q + 1);
    }
    big.measure_all();
    spec.circuits = {{"big", big}};
    line = sv::submit_line(3, spec);
    if (line.size() > (4u << 20)) break;
  }
  ASSERT_GT(line.size(), 4u << 20);
  ASSERT_EQ(line.back(), '\n');
  line.pop_back();
  const sv::RequestLine parsed = sv::parse_request_line(line);
  EXPECT_EQ(parsed.verb, sv::RequestLine::Verb::kSubmit);
  EXPECT_EQ(parsed.id, 3u);
  EXPECT_EQ(sh::spec_digest(parsed.spec), sh::spec_digest(spec));
}

// --- service: fair share + per-client/per-request accounting ------------------

TEST(SweepService, DispatcherRoundRobinsAcrossClientsNotFifo) {
  const sh::SweepSpec spec = small_spec();
  sv::SweepService service({.n_threads = 1, .cache = nullptr});

  // Gate the first request open-ended so the others all queue behind it;
  // FIFO would then serve client 1's backlog before client 2's first.
  std::mutex mutex;
  std::condition_variable cv;
  bool started = false;
  bool release = false;
  const auto gate = [&](const sw::Cell&) {
    std::unique_lock lock(mutex);
    started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };

  std::mutex order_mutex;
  std::vector<std::uint64_t> order;
  const auto record = [&](std::uint64_t tag) {
    return [&order, &order_mutex, tag](const sv::Summary&) {
      std::lock_guard lock(order_mutex);
      order.push_back(tag);
    };
  };

  const auto blocker = service.submit(spec, gate, record(11), 11, 1);
  {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return started; });
  }
  const auto second_a = service.submit(spec, {}, record(12), 12, 1);
  const auto third_a = service.submit(spec, {}, record(13), 13, 1);
  const auto first_b = service.submit(spec, {}, record(21), 21, 2);
  {
    std::lock_guard lock(mutex);
    release = true;
  }
  cv.notify_all();
  for (const auto& ticket : {blocker, second_a, third_a, first_b}) {
    ASSERT_TRUE(ticket->wait().ok()) << ticket->wait().error;
  }
  // Client 2's request jumps client 1's backlog, then the wrap comes back.
  EXPECT_EQ(order, (std::vector<std::uint64_t>{11, 21, 12, 13}));
}

TEST(SweepService, ClientRowsSumToSessionTotals) {
  const sh::SweepSpec spec = small_spec();
  sv::ServiceOptions service_options;
  service_options.n_threads = 2;
  service_options.cache =
      pc::CompilationCache::open({.directory = fresh_dir("rows")});
  sv::SweepService service(service_options);

  ASSERT_TRUE(service.submit(spec, {}, {}, 1, 1)->wait().ok());
  ASSERT_TRUE(service.submit(spec, {}, {}, 2, 2)->wait().ok());
  ASSERT_TRUE(service.submit(spec, {}, {}, 3, 2)->wait().ok());
  service.register_client(7);  // connected but idle: a row, all zero

  const sv::SessionStats stats = service.session_stats();
  ASSERT_EQ(stats.clients.size(), 3u);
  EXPECT_EQ(stats.clients[0].client_id, 1u);
  EXPECT_EQ(stats.clients[1].client_id, 2u);
  EXPECT_EQ(stats.clients[2].client_id, 7u);

  EXPECT_EQ(stats.clients[0].requests, 1u);
  EXPECT_EQ(stats.clients[0].cells_executed, spec.total_cells());
  EXPECT_GT(stats.clients[0].anneals, 0u);  // the cold compile
  EXPECT_EQ(stats.clients[1].requests, 2u);
  EXPECT_EQ(stats.clients[1].cells_executed, 2 * spec.total_cells());
  EXPECT_EQ(stats.clients[1].anneals, 0u);  // pure replays
  EXPECT_EQ(stats.clients[2].requests, 0u);
  EXPECT_EQ(stats.clients[2].cells_executed, 0u);

  std::uint64_t requests = 0;
  std::uint64_t cells = 0;
  std::uint64_t anneals = 0;
  for (const sv::ClientStats& row : stats.clients) {
    requests += row.requests;
    cells += row.cells_executed;
    anneals += row.anneals;
  }
  EXPECT_EQ(requests, stats.requests);
  EXPECT_EQ(cells, stats.cells_executed);
  EXPECT_EQ(anneals, stats.anneals);
}

TEST(SweepService, RequestAnnealAccountingIgnoresConcurrentProcessAnneals) {
  const sh::SweepSpec spec = small_spec();

  // The request's true cost, measured by the sweep core's own ledger.
  const std::uint64_t expected =
      sw::run(spec.circuits, spec.techniques, spec.machines, spec.options)
          .anneals;
  ASSERT_GT(expected, 0u);

  sv::SweepService service({.n_threads = 1, .cache = nullptr});
  std::mutex mutex;
  std::condition_variable cv;
  bool started = false;
  bool release = false;
  const auto gate = [&](const sw::Cell&) {
    std::unique_lock lock(mutex);
    started = true;
    cv.notify_all();
    cv.wait(lock, [&] { return release; });
  };
  const auto ticket = service.submit(spec, gate, {}, 1, 1);
  {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return started; });
  }
  // While the service request is pinned mid-flight, anneal elsewhere in the
  // process. A global before/after delta (the old accounting) would charge
  // these to the ticket.
  (void)sw::run(spec.circuits, spec.techniques, spec.machines, spec.options);
  {
    std::lock_guard lock(mutex);
    release = true;
  }
  cv.notify_all();
  const sv::Summary& summary = ticket->wait();
  ASSERT_TRUE(summary.ok()) << summary.error;
  EXPECT_EQ(summary.anneals, expected);
  EXPECT_EQ(service.session_stats().anneals, expected);
}

TEST(SweepService, FailedRequestIsChargedZeroAnneals) {
  const sh::SweepSpec spec = small_spec();
  sv::SweepService service({.n_threads = 1, .cache = nullptr});
  // Move the session's anneal counters first so a delta-style regression
  // would have something to misattribute.
  ASSERT_TRUE(service.submit(spec, {}, {}, 1, 1)->wait().ok());
  const std::uint64_t before = service.session_stats().anneals;
  ASSERT_GT(before, 0u);

  sh::SweepSpec bad = spec;
  bad.techniques.push_back("nope");
  const sv::Summary& failed = service.submit(bad, {}, {}, 2, 3)->wait();
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(failed.anneals, 0u);  // validation throws before any anneal

  const sv::SessionStats stats = service.session_stats();
  EXPECT_EQ(stats.anneals, before);
  ASSERT_EQ(stats.clients.size(), 2u);
  EXPECT_EQ(stats.clients[1].client_id, 3u);
  EXPECT_EQ(stats.clients[1].requests, 1u);
  EXPECT_EQ(stats.clients[1].anneals, 0u);
}

// --- connection: multiplexing, pruning, quotas, STOP --------------------------

TEST(ServeConnection, CompletedRequestIdsArePrunedAndReusable) {
  const sh::SweepSpec spec = small_spec();
  sv::ServiceOptions service_options;
  service_options.n_threads = 2;
  service_options.cache =
      pc::CompilationCache::open({.directory = fresh_dir("prune")});
  sv::SweepService service(service_options);
  PipePair pipes;
  sv::FrameReader frames(pipes.out[0]);
  ScopedServer server(
      [&] {
        EXPECT_EQ(sv::serve_connection(pipes.in[0], pipes.out[1], service),
                  2u);
        ::close(pipes.out[1]);
        pipes.out[1] = -1;
      },
      [&] { pipes.unblock_server(); });

  ASSERT_TRUE(sv::write_all(pipes.in[1], sv::submit_line(5, spec)));
  sv::Frame frame;
  do {
    frame = read_frame(frames);
    ASSERT_EQ(frame.request_id, 5u);
  } while (frame.type != sv::FrameType::kDone);
  ASSERT_TRUE(frame.summary.ok());

  // The finished ticket must be pruned: cancelling its id is an unknown-id
  // error, not a silent hit on a parked ticket.
  ASSERT_TRUE(sv::write_all(pipes.in[1], sv::cancel_line(5)));
  frame = read_frame(frames);
  EXPECT_EQ(frame.type, sv::FrameType::kError);
  EXPECT_EQ(frame.request_id, 5u);
  EXPECT_NE(frame.message.find("unknown or completed"), std::string::npos);

  // And its id is free for reuse — not a duplicate-submit rejection.
  ASSERT_TRUE(sv::write_all(pipes.in[1], sv::submit_line(5, spec)));
  std::size_t cells = 0;
  for (;;) {
    frame = read_frame(frames);
    ASSERT_EQ(frame.request_id, 5u);
    if (frame.type == sv::FrameType::kDone) break;
    ASSERT_EQ(frame.type, sv::FrameType::kCell);
    ++cells;
  }
  EXPECT_EQ(cells, spec.total_cells());
  EXPECT_TRUE(frame.summary.ok());
  EXPECT_EQ(frame.summary.anneals, 0u);  // warm replay off the session cache

  ASSERT_TRUE(sv::write_all(pipes.in[1], sv::quit_line()));
  server.join();
}

TEST(ServeConnection, SubmitOverTheInflightQuotaIsRejectedNamingTheLimit) {
  const sh::SweepSpec spec = small_spec();
  sv::SweepService service({.n_threads = 1, .cache = nullptr});
  sv::ServerOptions options;
  options.max_inflight_per_client = 1;
  PipePair pipes;
  sv::FrameReader frames(pipes.out[0]);
  ScopedServer server(
      [&] {
        (void)sv::serve_connection(pipes.in[0], pipes.out[1], service,
                                   options);
        ::close(pipes.out[1]);
        pipes.out[1] = -1;
      },
      [&] { pipes.unblock_server(); });

  // Request 1 queues behind the held dispatcher, so it is still in flight
  // when request 2 is read, and it sends nothing before the rejection.
  DispatcherHold hold(service);
  ASSERT_TRUE(hold.holding());
  ASSERT_TRUE(sv::write_all(pipes.in[1],
                            sv::submit_line(1, spec) + sv::submit_line(2, spec)));
  sv::Frame frame = read_frame(frames);
  ASSERT_EQ(frame.type, sv::FrameType::kError);
  EXPECT_EQ(frame.request_id, 2u);
  EXPECT_NE(frame.message.find("max in-flight"), std::string::npos);
  EXPECT_NE(frame.message.find("limit 1"), std::string::npos);
  hold.release();
  std::size_t cells = 0;
  for (;;) {
    frame = read_frame(frames);
    ASSERT_EQ(frame.request_id, 1u);
    if (frame.type == sv::FrameType::kDone) {
      EXPECT_TRUE(frame.summary.ok());
      break;
    }
    ASSERT_EQ(frame.type, sv::FrameType::kCell);
    ++cells;
  }
  EXPECT_EQ(cells, spec.total_cells());

  ASSERT_TRUE(sv::write_all(pipes.in[1], sv::quit_line()));
  server.join();
}

TEST(ServeConnection, OneConnectionMultiplexesOutstandingRequests) {
  const sh::SweepSpec spec = small_spec();
  const sw::Result reference =
      sw::run(spec.circuits, spec.techniques, spec.machines, spec.options);
  sv::ServiceOptions service_options;
  service_options.n_threads = 2;
  service_options.cache =
      pc::CompilationCache::open({.directory = fresh_dir("mux")});
  sv::SweepService service(service_options);
  PipePair pipes;
  sv::FrameReader frames(pipes.out[0]);
  ScopedServer server(
      [&] {
        EXPECT_EQ(sv::serve_connection(pipes.in[0], pipes.out[1], service),
                  2u);
        ::close(pipes.out[1]);
        pipes.out[1] = -1;
      },
      [&] { pipes.unblock_server(); });

  // Two outstanding submits on one connection; their frames demultiplex by
  // request id and each reassembles byte-identically.
  ASSERT_TRUE(sv::write_all(pipes.in[1],
                            sv::submit_line(1, spec) + sv::submit_line(2, spec)));
  std::map<std::uint64_t, std::vector<sw::Cell>> cells;
  std::map<std::uint64_t, sv::Summary> done;
  while (done.size() < 2) {
    sv::Frame frame = read_frame(frames);
    ASSERT_TRUE(frame.request_id == 1 || frame.request_id == 2);
    if (frame.type == sv::FrameType::kDone) {
      done[frame.request_id] = std::move(frame.summary);
    } else {
      ASSERT_EQ(frame.type, sv::FrameType::kCell);
      cells[frame.request_id].push_back(std::move(frame.cell));
    }
  }
  for (const std::uint64_t id : {1u, 2u}) {
    ASSERT_TRUE(done[id].ok()) << done[id].error;
    EXPECT_EQ(sh::canonical_bytes(assemble(spec, cells[id])),
              sh::canonical_bytes(reference));
  }
  EXPECT_GT(done[1].anneals, 0u);
  EXPECT_EQ(done[2].anneals, 0u);  // replayed from the session cache

  ASSERT_TRUE(sv::write_all(pipes.in[1], sv::quit_line()));
  server.join();
}

TEST(ServeConnection, StopAcksCancelsInflightAndSetsTheSessionFlag) {
  // Heavy enough that the sweep is still mid-cell when the STOP line is
  // processed microseconds later; cooperative cancel then skips the rest.
  sh::SweepSpec spec = small_spec();
  spec.options.compile.placement.anneal_iterations = 20000;
  spec.options.compile.placement.local_search_evaluations = 5000;
  sv::SweepService service({.n_threads = 1, .cache = nullptr});
  std::atomic<bool> stop{false};
  sv::ServerOptions options;
  options.stop = &stop;
  PipePair pipes;
  sv::FrameReader frames(pipes.out[0]);
  ScopedServer server(
      [&] {
        EXPECT_EQ(sv::serve_connection(pipes.in[0], pipes.out[1], service,
                                       options),
                  1u);
        ::close(pipes.out[1]);
        pipes.out[1] = -1;
      },
      [&] { pipes.unblock_server(); });

  ASSERT_TRUE(sv::write_all(pipes.in[1],
                            sv::submit_line(1, spec) + sv::stop_line(99)));
  bool acked = false;
  sv::Summary summary;
  bool summary_seen = false;
  while (!acked || !summary_seen) {
    const sv::Frame frame = read_frame(frames);
    if (frame.request_id == 99) {
      ASSERT_EQ(frame.type, sv::FrameType::kDone);
      acked = true;
      continue;
    }
    ASSERT_EQ(frame.request_id, 1u);
    if (frame.type == sv::FrameType::kDone) {
      summary = frame.summary;
      summary_seen = true;
    }
  }
  // STOP drains by cancelling: the submit finishes as cancelled, and the
  // session-wide flag propagates to the embedder (the CLI's farm loop).
  EXPECT_TRUE(summary.cancelled);
  EXPECT_TRUE(stop.load());
  server.join();
}

namespace {

/// SUBMIT lines from a tenant that never reads a byte. Sized so its unread
/// frames overrun the socket buffer and a 1 MiB per-client byte cap,
/// whichever the kernel's buffering exposes first.
struct Backlog {
  std::string lines;
  std::size_t requests = 0;
};

Backlog unread_backlog(const sh::SweepSpec& spec,
                       const sw::Result& reference) {
  const std::size_t frame_bytes =
      sv::cell_frame(1, reference.cells.front()).size();
  const std::size_t per_request = frame_bytes * spec.total_cells();
  Backlog backlog;
  backlog.requests = std::min<std::size_t>(512, (3u << 20) / per_request + 8);
  for (std::size_t id = 1; id <= backlog.requests; ++id) {
    backlog.lines += sv::submit_line(id, spec);
  }
  return backlog;
}

}  // namespace

TEST(ServeConnection, StalledReaderIsDetachedAndTheConnectionReturns) {
  // A lent connection whose reader sends a backlog and never reads a frame
  // must be detached like a socket tenant, and serve_connection must
  // return; no worker thread may stay blocked writing to it.
  const sh::SweepSpec spec = small_spec();
  const sw::Result reference =
      sw::run(spec.circuits, spec.techniques, spec.machines, spec.options);
  sv::ServiceOptions service_options;
  service_options.n_threads = 2;
  service_options.cache =
      pc::CompilationCache::open({.directory = fresh_dir("stalled")});
  sv::SweepService service(service_options);
  sv::ServerOptions options;
  options.write_timeout_seconds = 1;
  options.max_inflight_per_client = 0;  // unbounded count: bytes do the work
  options.max_client_buffered_bytes = 1u << 20;
  const Backlog backlog = unread_backlog(spec, reference);

  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  std::promise<void> returned;
  std::future<void> server_returned = returned.get_future();
  ScopedServer server(
      [&] {
        (void)sv::serve_connection(fds[0], fds[0], service, options);
        returned.set_value();
      },
      [&] { ::shutdown(fds[0], SHUT_RDWR); });
  std::thread writer([&] {
    (void)sv::write_all(fds[1], backlog.lines);
    ::shutdown(fds[1], SHUT_WR);
  });
  const bool returned_in_time =
      server_returned.wait_for(std::chrono::seconds(10)) ==
      std::future_status::ready;
  // Shut the server end down before joining: once the server stops
  // reading, the writer can block on a full socket that nobody drains.
  ::shutdown(fds[0], SHUT_RDWR);
  writer.join();
  server.join();
  ::close(fds[0]);
  ::close(fds[1]);
  EXPECT_TRUE(returned_in_time)
      << "serve_connection did not return within 10 s of a stalled reader";

  // The detach left the session healthy: a fresh request completes.
  EXPECT_TRUE(service.submit(spec)->wait().ok());
}

// --- the farm: concurrent tenants over one unix socket ------------------------

namespace {

std::string fresh_socket_path(const std::string& tag) {
  static int counter = 0;
  return std::string(::testing::TempDir()) + "parallax_farm_" + tag + "_" +
         std::to_string(::getpid()) + "_" + std::to_string(counter++) +
         ".sock";
}

bool wait_for_socket(const std::string& path) {
  for (int i = 0; i < 2000; ++i) {
    if (fs::exists(path)) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return false;
}

/// Connects to the farm at `path` once; -1 on failure. The socket file
/// appears only once the farm listens, so no retry is needed.
int connect_unix(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

}  // namespace

// The socket file appears only once the farm listens: a client that sees
// the path is never refused, however soon it connects.
TEST(ServeFarm, ASocketThatExistsAcceptsItsFirstConnect) {
  sv::SweepService service({.n_threads = 1, .cache = nullptr});
  const std::string socket_path = fresh_socket_path("listen");
  std::size_t refused = 0;
  for (int cycle = 0; cycle < 5000; ++cycle) {
    std::atomic<bool> stop{false};
    sv::ServerOptions options;
    options.stop = &stop;
    std::atomic<bool> server_ok{false};
    ScopedServer server(
        [&] {
          server_ok = sv::serve_unix_socket(socket_path, service, options);
        },
        [&] { stop.store(true); });
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!fs::exists(socket_path)) {
      ASSERT_LT(std::chrono::steady_clock::now(), deadline) << cycle;
    }
    const int fd = connect_unix(socket_path);
    if (fd < 0) {
      ++refused;
      stop.store(true);
      server.join();
      continue;
    }
    ASSERT_TRUE(sv::write_all(fd, sv::stop_line(1)));
    sv::FrameReader frames(fd);
    const sv::Frame ack = read_frame(frames);
    ::close(fd);
    server.join();
    ASSERT_EQ(ack.type, sv::FrameType::kDone) << cycle;
    ASSERT_TRUE(server_ok.load()) << cycle;
    ASSERT_FALSE(fs::exists(socket_path)) << cycle;
  }
  EXPECT_EQ(refused, 0u);
}

TEST(ServeFarm, ThreeConcurrentClientsReassembleByteIdenticalResults) {
  const sh::SweepSpec spec = small_spec();
  const sw::Result reference =
      sw::run(spec.circuits, spec.techniques, spec.machines, spec.options);

  sv::ServiceOptions service_options;
  service_options.n_threads = 2;
  service_options.cache =
      pc::CompilationCache::open({.directory = fresh_dir("farm3")});
  sv::SweepService service(service_options);

  const std::string socket_path = fresh_socket_path("three");
  std::atomic<bool> stop{false};
  sv::ServerOptions options;
  options.stop = &stop;
  std::atomic<bool> server_ok{false};
  ScopedServer server(
      [&] { server_ok = sv::serve_unix_socket(socket_path, service, options); },
      [&] { stop.store(true); });
  ASSERT_TRUE(wait_for_socket(socket_path));

  struct Outcome {
    sv::ClientOutcome cold;
    sv::ClientOutcome warm;
    std::string error;
  };
  std::vector<Outcome> outcomes(3);
  std::vector<std::thread> clients;
  clients.reserve(outcomes.size());
  for (std::size_t i = 0; i < outcomes.size(); ++i) {
    clients.emplace_back([&, i] {
      try {
        sv::Client client(socket_path);
        outcomes[i].cold = client.run(spec);
        outcomes[i].warm = client.run(spec);
        client.quit();
      } catch (const std::exception& error) {
        outcomes[i].error = error.what();
      }
    });
  }
  for (auto& thread : clients) thread.join();

  std::uint64_t summed_anneals = 0;
  for (const Outcome& outcome : outcomes) {
    ASSERT_TRUE(outcome.error.empty()) << outcome.error;
    ASSERT_TRUE(outcome.cold.summary.ok()) << outcome.cold.summary.error;
    ASSERT_TRUE(outcome.warm.summary.ok()) << outcome.warm.summary.error;
    EXPECT_EQ(sh::canonical_bytes(outcome.cold.result),
              sh::canonical_bytes(reference));
    EXPECT_EQ(sh::canonical_bytes(outcome.warm.result),
              sh::canonical_bytes(reference));
    // Each client's second pass replays from the shared session cache.
    EXPECT_EQ(outcome.warm.summary.anneals, 0u);
    summed_anneals += outcome.cold.summary.anneals;
    summed_anneals += outcome.warm.summary.anneals;
  }

  // The per-client rows reproduce the session totals exactly.
  sv::Client admin(socket_path);
  const sv::SessionStats stats = admin.stats();
  EXPECT_EQ(stats.requests, 6u);
  EXPECT_EQ(stats.cells_executed, 6 * spec.total_cells());
  EXPECT_GT(stats.anneals, 0u);
  EXPECT_EQ(stats.anneals, summed_anneals);
  ASSERT_EQ(stats.clients.size(), 4u);  // three tenants + this connection
  std::uint64_t row_requests = 0;
  std::uint64_t row_cells = 0;
  std::uint64_t row_anneals = 0;
  std::uint64_t previous_id = 0;
  for (const sv::ClientStats& row : stats.clients) {
    EXPECT_GT(row.client_id, previous_id);  // ascending, ids start at 1
    previous_id = row.client_id;
    row_requests += row.requests;
    row_cells += row.cells_executed;
    row_anneals += row.anneals;
  }
  EXPECT_EQ(row_requests, stats.requests);
  EXPECT_EQ(row_cells, stats.cells_executed);
  EXPECT_EQ(row_anneals, stats.anneals);
  // This connection is live, so its row carries the connection overlay.
  EXPECT_TRUE(stats.clients.back().connected);
  EXPECT_GE(stats.clients.back().connected_seconds, 0.0);

  // Graceful drain: STOP is acked, the farm returns true, the socket file
  // is gone.
  admin.stop();
  server.join();
  EXPECT_TRUE(server_ok.load());
  EXPECT_FALSE(fs::exists(socket_path));
}

TEST(ServeFarm, SubmitOverTheInflightQuotaGetsAnErrorNamingTheLimit) {
  const sh::SweepSpec spec = small_spec();
  sv::SweepService service({.n_threads = 1, .cache = nullptr});
  const std::string socket_path = fresh_socket_path("quota");
  std::atomic<bool> stop{false};
  sv::ServerOptions options;
  options.stop = &stop;
  options.max_inflight_per_client = 1;
  std::atomic<bool> server_ok{false};
  ScopedServer server(
      [&] { server_ok = sv::serve_unix_socket(socket_path, service, options); },
      [&] { stop.store(true); });
  ASSERT_TRUE(wait_for_socket(socket_path));

  const int fd = connect_unix(socket_path);
  ASSERT_GE(fd, 0);
  sv::FrameReader frames(fd);
  // As in the ServeConnection test: request 1 queues behind the held
  // dispatcher, so the rejection of request 2 is the first frame.
  DispatcherHold hold(service);
  ASSERT_TRUE(hold.holding());
  ASSERT_TRUE(sv::write_all(fd,
                            sv::submit_line(1, spec) + sv::submit_line(2, spec)));
  sv::Frame frame = read_frame(frames);
  ASSERT_EQ(frame.type, sv::FrameType::kError);
  EXPECT_EQ(frame.request_id, 2u);
  EXPECT_NE(frame.message.find("max in-flight"), std::string::npos);
  EXPECT_NE(frame.message.find("limit 1"), std::string::npos);
  hold.release();
  std::size_t cells = 0;
  for (;;) {
    frame = read_frame(frames);
    ASSERT_EQ(frame.request_id, 1u);
    if (frame.type == sv::FrameType::kDone) {
      EXPECT_TRUE(frame.summary.ok());
      break;
    }
    ASSERT_EQ(frame.type, sv::FrameType::kCell);
    ++cells;
  }
  EXPECT_EQ(cells, spec.total_cells());
  ::close(fd);

  sv::Client admin(socket_path);
  admin.stop();
  server.join();
  EXPECT_TRUE(server_ok.load());
  EXPECT_FALSE(fs::exists(socket_path));
}

TEST(ServeFarm, SlowReaderIsDetachedWithoutStallingTheFarm) {
  const sh::SweepSpec spec = small_spec();
  const sw::Result reference =
      sw::run(spec.circuits, spec.techniques, spec.machines, spec.options);

  sv::ServiceOptions service_options;
  service_options.n_threads = 2;
  service_options.cache =
      pc::CompilationCache::open({.directory = fresh_dir("slow")});
  sv::SweepService service(service_options);

  const std::string socket_path = fresh_socket_path("slow");
  std::atomic<bool> stop{false};
  sv::ServerOptions options;
  options.stop = &stop;
  options.write_timeout_seconds = 1;
  options.max_inflight_per_client = 0;  // unbounded count: bytes do the work
  options.max_client_buffered_bytes = 1u << 20;
  std::atomic<bool> server_ok{false};
  ScopedServer server(
      [&] { server_ok = sv::serve_unix_socket(socket_path, service, options); },
      [&] { stop.store(true); });
  ASSERT_TRUE(wait_for_socket(socket_path));

  // A tenant that submits a pile of sweeps and never reads a byte. The
  // byte cap may detach it and close its socket before the whole backlog is
  // written, so the write may fail.
  const Backlog backlog = unread_backlog(spec, reference);
  const int slow_fd = connect_unix(socket_path);
  ASSERT_GE(slow_fd, 0);
  (void)sv::write_all(slow_fd, backlog.lines);

  // A well-behaved tenant connects after it and must be served promptly —
  // round-robin interleaves it past the slow reader's backlog, and the
  // detach never blocks the loop.
  sv::Client good(socket_path);
  const sv::ClientOutcome outcome = good.run(spec);
  ASSERT_TRUE(outcome.summary.ok()) << outcome.summary.error;
  EXPECT_EQ(sh::canonical_bytes(outcome.result),
            sh::canonical_bytes(reference));

  // The slow reader ends up detached (connected=false). It is client 1: it
  // connected first, and ids follow accept order. The farm stops reading at
  // detach, so the tail of its backlog may never have been submitted.
  bool detached = false;
  for (int i = 0; i < 4000 && !detached; ++i) {
    const sv::SessionStats stats = good.stats();
    for (const sv::ClientStats& row : stats.clients) {
      if (row.client_id == 1 && !row.connected) {
        EXPECT_LE(row.requests, backlog.requests);
        detached = true;
      }
    }
    if (!detached) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  EXPECT_TRUE(detached);
  ::close(slow_fd);

  good.stop();
  server.join();
  EXPECT_TRUE(server_ok.load());
  EXPECT_FALSE(fs::exists(socket_path));
}

TEST(ServeFarm, StopFlagDrainsAndUnlinksTheSocket) {
  const sh::SweepSpec spec = small_spec();
  sv::SweepService service({.n_threads = 2, .cache = nullptr});
  const std::string socket_path = fresh_socket_path("flag");
  std::atomic<bool> stop{false};
  sv::ServerOptions options;
  options.stop = &stop;
  std::atomic<bool> server_ok{false};
  ScopedServer server(
      [&] { server_ok = sv::serve_unix_socket(socket_path, service, options); },
      [&] { stop.store(true); });
  ASSERT_TRUE(wait_for_socket(socket_path));
  {
    sv::Client client(socket_path);
    const sv::ClientOutcome outcome = client.run(spec);
    ASSERT_TRUE(outcome.summary.ok()) << outcome.summary.error;
    // The CLI's signal handler path: flip the flag, the loop notices on its
    // next tick and drains without any request in flight.
    stop.store(true);
    server.join();
  }
  EXPECT_TRUE(server_ok.load());
  EXPECT_FALSE(fs::exists(socket_path));
}

// --- frame payload decoders: bounded counts and mutation fuzz -----------------

namespace {

/// Decodes `payload` under a header of `type` whose checksum matches, so
/// the bytes reach the payload decoder instead of failing the checksum.
sv::Frame decode_payload(sv::FrameType type, std::string_view payload) {
  sv::FrameHeader header;
  header.type = type;
  header.request_id = 7;
  header.payload_size = payload.size();
  header.checksum = pu::checksum64(payload.data(), payload.size());
  return sv::decode_frame(header, payload);
}

std::string payload_of(const std::string& frame) {
  return frame.substr(sv::kFrameHeaderBytes);
}

}  // namespace

TEST(ServeProtocol, StatsClientCountIsBoundedByThePayload) {
  // A STATS payload with no client rows whose count claims 2^61, 2^40 or
  // 2^26 of them. Each is a ReadError before any row is reserved; 2^26
  // rows of 56 bytes alone would reserve 3.7 GB.
  std::string payload = payload_of(sv::stats_frame(1, sv::SessionStats{}));
  payload.resize(payload.size() - 8);  // drop the zero client count
  for (const int log2 : {61, 40, 26}) {
    pc::Writer count;
    count.u64(std::uint64_t{1} << log2);
    EXPECT_THROW(
        (void)decode_payload(sv::FrameType::kStats, payload + count.bytes()),
        pc::ReadError)
        << "2^" << log2 << " clients";
  }
}

TEST(ServeFrameFuzz, MutatedPayloadsDecodeOrThrowDocumentedErrors) {
  // One payload of each frame type, 20,000 mutants each. The contract: a
  // decode, or ServeError / cache::ReadError / ShardError — never another
  // exception, a crash, or a hang.
  sh::SweepSpec spec = small_spec();
  spec.circuits = {spec.circuits.back()};
  spec.techniques = {"parallax"};
  spec.options.compile.scheduler.record_positions = true;
  spec.options.shots = parallax::shots::ShotOptions{};
  const sw::Result swept = sw::run(spec.circuits, spec.techniques,
                                   spec.machines, spec.options);
  ASSERT_TRUE(swept.cells.at(0).ok()) << swept.cells.at(0).error;
  ASSERT_FALSE(swept.cells.at(0).shot_plans.empty());

  sv::Summary summary;
  summary.total_cells = 8;
  summary.executed_cells = 6;
  summary.cancelled_cells = 2;
  summary.anneals = 3;
  summary.cancelled = true;
  summary.wall_seconds = 0.75;
  summary.error = "request cancelled";
  sv::SessionStats stats;
  stats.requests = 4;
  stats.cells_executed = 32;
  stats.cache_enabled = true;
  stats.uptime_seconds = 9.5;
  stats.clients.resize(2);
  stats.clients[0].client_id = 1;
  stats.clients[0].connected = true;
  stats.clients[1].client_id = 2;
  stats.clients[1].bytes_queued = 4096;

  const struct {
    sv::FrameType type;
    std::string payload;
    std::uint64_t seed;
  } cases[] = {
      {sv::FrameType::kCell, payload_of(sv::cell_frame(1, swept.cells[0])),
       0xF4A3E1},
      {sv::FrameType::kDone, payload_of(sv::done_frame(1, summary)),
       0xF4A3E2},
      {sv::FrameType::kStats, payload_of(sv::stats_frame(1, stats)),
       0xF4A3E3},
      {sv::FrameType::kError,
       payload_of(sv::error_frame(1, "unknown technique 'x'")), 0xF4A3E4},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(static_cast<int>(c.type));
    const auto tally =
        parallax::fuzz::run_mutants<sv::ServeError, pc::ReadError,
                                    sh::ShardError>(
            c.payload, c.seed, 20000, [&](const std::string& mutant) {
              (void)decode_payload(c.type, mutant);
            });
    for (const std::string& escape : tally.escapes) {
      ADD_FAILURE() << "outside the contract: " << escape;
    }
    EXPECT_GT(tally.decoded, 0u);
    EXPECT_GT(tally.rejected, 0u);
  }
}

// --- the warm-serve splice and the request line -------------------------------

namespace {

/// The ServeError message parse_request_line throws for `line`, or "" if
/// it parsed.
std::string request_error(std::string_view line) {
  try {
    (void)sv::parse_request_line(line);
  } catch (const sv::ServeError& error) {
    return error.what();
  }
  return "";
}

/// Serves `spec` twice over one socketpair connection to a fresh service
/// on `cache`, returning the cold and the warm outcome.
std::pair<sv::ClientOutcome, sv::ClientOutcome> serve_twice(
    const sh::SweepSpec& spec,
    std::shared_ptr<pc::CompilationCache> cache) {
  sv::SweepService service({.n_threads = 2, .cache = std::move(cache)});
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) {
    ADD_FAILURE() << "socketpair: " << std::strerror(errno);
    return {};
  }
  std::pair<sv::ClientOutcome, sv::ClientOutcome> outcomes;
  {
    ScopedServer server(
        [&] { (void)sv::serve_connection(fds[0], fds[0], service); },
        [&] { ::shutdown(fds[0], SHUT_RDWR); });
    sv::Client client(fds[1]);  // adopts + closes fds[1]
    outcomes.first = client.run(spec);
    outcomes.second = client.run(spec);
    client.quit();
  }
  ::close(fds[0]);
  return outcomes;
}

}  // namespace

TEST(ServeProtocol, RequestTokensSplitOnSpaceTabCrVtFfOnly) {
  for (const char separator : {' ', '\t', '\r', '\v', '\f'}) {
    SCOPED_TRACE(static_cast<int>(separator));
    const std::string cancel = std::string("CANCEL") + separator + "7" +
                               separator;
    const sv::RequestLine parsed = sv::parse_request_line(cancel);
    EXPECT_EQ(parsed.verb, sv::RequestLine::Verb::kCancel);
    EXPECT_EQ(parsed.id, 7u);
  }
  // The SUBMIT hex token ends at the same separators.
  const sh::SweepSpec spec = small_spec();
  std::string submit = sv::submit_line(5, spec);
  submit.pop_back();
  for (const char separator : {'\t', '\r', '\v', '\f'}) {
    SCOPED_TRACE(static_cast<int>(separator));
    std::string line = submit;
    std::replace(line.begin(), line.end(), ' ', separator);
    line += separator;
    const sv::RequestLine parsed = sv::parse_request_line(line);
    EXPECT_EQ(parsed.verb, sv::RequestLine::Verb::kSubmit);
    EXPECT_EQ(sh::spec_digest(parsed.spec), sh::spec_digest(spec));
  }
  // NUL and 0xA0 (a Latin-1 no-break space) are token bytes.
  for (const char byte : {'\0', '\xA0'}) {
    SCOPED_TRACE(static_cast<int>(static_cast<unsigned char>(byte)));
    EXPECT_EQ(request_error(std::string("CANCEL") + byte + "7")
                  .rfind("unknown request verb 'CANCEL", 0),
              0u);
    EXPECT_EQ(request_error(std::string("CANCEL 7") + byte)
                  .rfind("CANCEL request id '7", 0),
              0u);
    EXPECT_EQ(request_error(submit + byte), "SUBMIT payload is not valid hex");
    EXPECT_EQ(request_error(submit + byte + " 1"),
              "SUBMIT takes exactly id and spec hex");
  }
  EXPECT_EQ(request_error("SUBMIT 1 abc"), "SUBMIT payload is not valid hex");
  EXPECT_EQ(request_error("SUBMIT 1 \t"),
            "SUBMIT needs a hex-encoded sweep spec");
}

TEST(ServeRequestFuzz, MutatedRequestLinesParseOrThrowDocumentedErrors) {
  // 20,000 mutants over one valid line of each verb. The contract: a
  // RequestLine, or ServeError / cache::ReadError / ShardError — never
  // another exception, a crash, or a hang.
  std::string submit = sv::submit_line(42, small_spec());
  submit.pop_back();
  const struct {
    std::string line;
    int mutants;
    std::uint64_t seed;
  } cases[] = {
      {submit, 12000, 0x11E0},   {"CANCEL 7", 2000, 0x11E1},
      {"STATS 9", 2000, 0x11E2}, {"STOP 3", 2000, 0x11E3},
      {"QUIT", 2000, 0x11E4},
  };
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  for (const auto& c : cases) {
    SCOPED_TRACE(c.line.substr(0, 8));
    const auto tally =
        parallax::fuzz::run_mutants<sv::ServeError, pc::ReadError,
                                    sh::ShardError>(
            c.line, c.seed, c.mutants, [](const std::string& mutant) {
              (void)sv::parse_request_line(mutant);
            });
    for (const std::string& escape : tally.escapes) {
      ADD_FAILURE() << "outside the contract: " << escape;
    }
    decoded += tally.decoded;
    rejected += tally.rejected;
  }
  EXPECT_GT(decoded, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(ServeFrameFuzz, ScanRejectsWhatParseCellRejectsAndSplicesIdentically) {
  // The payload and mutants of SerializeFuzz.
  // MutatedCellPayloadsDecodeOrThrowReadError (test_cache.cpp). scan_cell
  // must throw ReadError exactly when parse_cell does, and every accepted
  // mutant must splice to the kCell frame of the cell parse_cell decodes.
  pp::CompileOptions options;
  options.placement.anneal_iterations = 60;
  options.placement.local_search_evaluations = 40;
  options.scheduler.record_positions = true;
  const auto config = ph::HardwareConfig::quera_aquila_256();
  pc::CachedCell cached;
  cached.result = pt::compile("parallax", ghz(5, "ghz5"), config, options);
  cached.has_success_probability = true;
  cached.success_probability = 0.5;
  cached.has_shot_plans = true;
  cached.shot_plans =
      parallax::shots::parallelization_sweep(cached.result, config);
  const std::string payload = pc::serialize_cell(cached);

  sw::Cell labels;
  labels.circuit = "ghz5";
  labels.technique = "parallax";
  labels.machine = config.name;
  labels.circuit_index = 1;
  labels.technique_index = 2;
  labels.origin = "serve-test";
  labels.from_cache = true;
  labels.compile_seconds = 0.125;

  std::mt19937_64 rng(0xCE11);
  std::size_t accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    const std::string mutant = parallax::fuzz::mutate(payload, i, rng);
    std::optional<pc::CachedCell> decoded;
    try {
      decoded = pc::parse_cell(mutant);
    } catch (const pc::ReadError&) {
    }
    std::optional<pc::ScannedCell> scanned;
    try {
      scanned = pc::scan_cell(std::make_shared<const std::string>(mutant));
    } catch (const pc::ReadError&) {
    }
    ASSERT_EQ(scanned.has_value(), decoded.has_value()) << "mutant " << i;
    if (!decoded) continue;
    ++accepted;
    sw::Cell cell = labels;
    cell.result = std::move(decoded->result);
    cell.success_probability = decoded->success_probability;
    cell.shot_plans = std::move(decoded->shot_plans);
    ASSERT_EQ(sv::cell_frame(7, labels, *scanned), sv::cell_frame(7, cell))
        << "mutant " << i;
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_LT(accepted, 20000u);
}

TEST(SweepHooks, OnCachedCellTakesTheHitsAndOnCellTheComputedCells) {
  const sh::SweepSpec spec = small_spec();
  sw::Options options = spec.options;
  options.cache =
      pc::CompilationCache::open({.directory = "", .disk = false});
  (void)sw::run(spec.circuits, {"parallax"}, spec.machines, options);

  std::atomic<std::size_t> computed{0};
  std::atomic<std::size_t> spliced{0};
  options.on_cell = [&](const sw::Cell& cell) {
    EXPECT_FALSE(cell.from_cache);
    EXPECT_EQ(cell.technique, "static");
    ++computed;
  };
  options.on_cached_cell = [&](const sw::Cell& cell,
                               const pc::ScannedCell& cached) {
    EXPECT_TRUE(cell.from_cache);
    EXPECT_EQ(cell.technique, "parallax");
    EXPECT_TRUE(cell.result.layers.empty());
    EXPECT_EQ(cached.result(),
              pc::serialize_result(pc::parse_cell(*cached.payload).result));
    ++spliced;
  };
  const sw::Result result =
      sw::run(spec.circuits, spec.techniques, spec.machines, options);
  EXPECT_EQ(spliced.load(), spec.circuits.size());
  EXPECT_EQ(computed.load(), spec.circuits.size());
  EXPECT_EQ(result.result_cache_hits, spec.circuits.size());
  EXPECT_EQ(result.result_cache_misses, spec.circuits.size());
}

TEST(ServeEndToEnd, WarmHitsSpliceEverySectionByteIdentically) {
  // Recorded positions and shot plans make every spliced section of a
  // warm cell non-empty; the warm cells must reassemble to the bytes of
  // the plain in-process sweep, as the cold ones do.
  sh::SweepSpec spec = small_spec();
  spec.options.compile.scheduler.record_positions = true;
  spec.options.shots = parallax::shots::ShotOptions{};
  const sw::Result reference =
      sw::run(spec.circuits, spec.techniques, spec.machines, spec.options);
  bool positions = false;
  for (const sw::Cell& cell : reference.cells) {
    ASSERT_TRUE(cell.ok()) << cell.error;
    ASSERT_FALSE(cell.shot_plans.empty());
    for (const auto& layer : cell.result.layers) {
      positions = positions || !layer.positions.empty();
    }
  }
  ASSERT_TRUE(positions);

  const auto [cold, warm] = serve_twice(
      spec, pc::CompilationCache::open({.directory = fresh_dir("splice")}));
  ASSERT_TRUE(cold.summary.ok()) << cold.summary.error;
  ASSERT_TRUE(warm.summary.ok()) << warm.summary.error;
  EXPECT_EQ(warm.summary.result_cache_hits, spec.total_cells());
  EXPECT_EQ(warm.summary.anneals, 0u);
  for (const sw::Cell& cell : warm.result.cells) {
    EXPECT_TRUE(cell.from_cache);
  }
  EXPECT_EQ(sh::canonical_bytes(cold.result), sh::canonical_bytes(reference));
  EXPECT_EQ(sh::canonical_bytes(warm.result), sh::canonical_bytes(reference));
}

TEST(ServeEndToEnd, AChecksumValidMalformedEntryIsAServedMiss) {
  // Schema drift: one result entry rewritten through Store::put with an
  // unknown gate type, so the store's checksum passes and only the scan
  // can refuse it. The served request must recompile that cell.
  const sh::SweepSpec spec = small_spec();
  const sw::Result reference =
      sw::run(spec.circuits, spec.techniques, spec.machines, spec.options);
  const std::string dir = fresh_dir("drift");
  {
    sw::Options options = spec.options;
    options.cache = pc::CompilationCache::open({.directory = dir});
    (void)sw::run(spec.circuits, spec.techniques, spec.machines, options);
  }
  {
    pc::Store store({.directory = dir});
    const auto entries = store.entries();
    const auto entry =
        std::find_if(entries.begin(), entries.end(), [](const auto& e) {
          return e.kind == pc::Kind::kResult;
        });
    ASSERT_NE(entry, entries.end());
    const pc::Store::Payload lent = store.get(pc::Kind::kResult, entry->key);
    ASSERT_NE(lent, nullptr);
    std::string payload = *lent;
    const pc::CachedCell cell = pc::parse_cell(payload);
    ASSERT_GT(cell.result.circuit.size(), 0u);
    // technique, n_qubits, name, gate count: then the first gate's type.
    const std::size_t first_gate = 8 + cell.result.technique.size() + 4 +
                                   8 + cell.result.circuit.name().size() + 8;
    payload[first_gate] = static_cast<char>(0xFF);
    store.put(pc::Kind::kResult, entry->key, payload);
    ASSERT_THROW(
        (void)pc::scan_cell(std::make_shared<const std::string>(payload)),
        pc::ReadError);
  }
  // A fresh handle reads the rewritten entry from the disk tier.
  const auto [served, again] =
      serve_twice(spec, pc::CompilationCache::open({.directory = dir}));
  ASSERT_TRUE(served.summary.ok()) << served.summary.error;
  EXPECT_EQ(served.summary.result_cache_misses, 1u);
  EXPECT_EQ(served.summary.result_cache_hits, spec.total_cells() - 1);
  EXPECT_EQ(sh::canonical_bytes(served.result),
            sh::canonical_bytes(reference));
  // The recompiled cell replaced the entry.
  EXPECT_EQ(again.summary.result_cache_hits, spec.total_cells());
  EXPECT_EQ(sh::canonical_bytes(again.result), sh::canonical_bytes(reference));
}

TEST(ServeClient, ALyingFrameHeaderIsAClosedConnectionNotAnAllocation) {
  // A peer answers STATS with one kStats header declaring 2^33 - 1 payload
  // bytes, then closes its side. The client must report the connection
  // closed mid-frame; sizing its buffer by the header asked for 8 GiB. The
  // probe runs in a child capped 1 GiB above its address space, so such
  // an allocation fails there (std::bad_alloc) instead of touching memory.
  std::string header = sv::stats_frame(1, sv::SessionStats{})
                           .substr(0, sv::kFrameHeaderBytes);
  pc::Writer size;
  size.u64((std::uint64_t{1} << 33) - 1);
  header.replace(24, 8, size.bytes());  // the payload size field
  ASSERT_EQ(sv::parse_frame_header(header).payload_size,
            (std::uint64_t{1} << 33) - 1);
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  ASSERT_TRUE(sv::write_all(fds[0], header));
  // The client's STATS line still lands; its reads see EOF after 40 bytes.
  ASSERT_EQ(::shutdown(fds[0], SHUT_WR), 0);
  EXPECT_EXIT(
      {
        if (!parallax::fuzz::cap_address_space(std::uint64_t{1} << 30)) {
          std::_Exit(2);
        }
        try {
          sv::Client client(fds[1]);
          (void)client.stats();
        } catch (const sv::ServeError& error) {
          std::fprintf(stderr, "%s\n", error.what());
          std::_Exit(0);
        }
      },
      ::testing::ExitedWithCode(0), "serve connection closed mid-frame");
  ::close(fds[0]);
  ::close(fds[1]);
}

TEST(ServeClient, FrameReaderReturnsEveryFrameWhateverTheChunking) {
  // A run of kCell and kDone frames, written in chunks of each size and
  // once all at once, must read back as exactly those frames, in order.
  // The large stream adds a cell past the reader's 1 MiB first buffer.
  pp::CompileOptions options;
  options.placement.anneal_iterations = 60;
  options.placement.local_search_evaluations = 40;
  options.scheduler.record_positions = true;
  const auto config = ph::HardwareConfig::quera_aquila_256();
  sw::Cell cell;
  cell.circuit = "ghz5";
  cell.technique = "parallax";
  cell.machine = config.name;
  cell.result = pt::compile("parallax", ghz(5, "ghz5"), config, options);
  cell.success_probability = 0.5;
  cell.shot_plans = parallax::shots::parallelization_sweep(cell.result, config);
  std::vector<std::string> frames;
  for (std::uint64_t id = 1; id <= 3; ++id) {
    for (std::size_t ci = 0; ci < 3; ++ci) {
      cell.circuit_index = ci;
      cell.error = std::string(ci * 17, 'e');
      cell.compile_seconds = 0.25 * static_cast<double>(ci);
      frames.push_back(sv::cell_frame(id, cell));
    }
    sv::Summary summary;
    summary.total_cells = 3;
    summary.executed_cells = 3;
    summary.wall_seconds = 0.5;
    frames.push_back(sv::done_frame(id, summary));
  }
  std::vector<std::string> large = frames;
  cell.error = std::string((std::size_t{3} << 19) + 11, 'x');
  large.insert(large.begin() + 1, sv::cell_frame(9, cell));
  large.push_back(sv::done_frame(9, sv::Summary{}));

  const auto read_back = [](const std::vector<std::string>& sent,
                            std::size_t chunk) {
    std::string stream;
    for (const std::string& frame : sent) stream += frame;
    if (chunk == 0) chunk = stream.size();
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    std::thread writer([&] {
      for (std::size_t at = 0; at < stream.size(); at += chunk) {
        if (!sv::write_all(fds[0], std::string_view(stream).substr(at, chunk))) {
          break;
        }
      }
      ::shutdown(fds[0], SHUT_WR);
    });
    sv::FrameReader reader(fds[1]);
    try {
      for (std::size_t i = 0; i < sent.size(); ++i) {
        const sv::Frame frame = reader.next();
        const std::string again =
            frame.type == sv::FrameType::kCell
                ? sv::cell_frame(frame.request_id, frame.cell)
                : sv::done_frame(frame.request_id, frame.summary);
        EXPECT_EQ(again, sent[i]) << "frame " << i << ", chunks of " << chunk;
      }
    } catch (const std::exception& error) {
      ADD_FAILURE() << error.what() << ", chunks of " << chunk;
    }
    // The stream ends on a frame boundary.
    EXPECT_THROW((void)reader.next(), sv::ServeError);
    ::shutdown(fds[1], SHUT_RDWR);  // a writer left blocked gets an error
    writer.join();
    ::close(fds[0]);
    ::close(fds[1]);
  };
  for (const std::size_t chunk : {1, 7, 39, 40, 41, 65536, 0}) {
    read_back(frames, chunk);
  }
  for (const std::size_t chunk : {65536, 0}) read_back(large, chunk);
}

namespace {

/// The per-pair hex decode and byte-loop encode the table-driven codec
/// replaced, kept as its reference.
namespace reference_hex {

constexpr std::uint8_t kSpace = 16;
constexpr std::uint8_t kOther = 17;
constexpr std::array<std::uint8_t, 256> kCharClass = [] {
  std::array<std::uint8_t, 256> table{};
  table.fill(kOther);
  for (int c = '0'; c <= '9'; ++c) {
    table[c] = static_cast<std::uint8_t>(c - '0');
  }
  for (int c = 'a'; c <= 'f'; ++c) {
    table[c] = static_cast<std::uint8_t>(c - 'a' + 10);
    table[c - 'a' + 'A'] = table[c];
  }
  for (const char c : {' ', '\t', '\r', '\v', '\f'}) {
    table[static_cast<unsigned char>(c)] = kSpace;
  }
  return table;
}();

std::string encode(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    hex += kDigits[b >> 4];
    hex += kDigits[b & 0xf];
  }
  return hex;
}

/// How many characters of `text` the reference decodes: its leading run of
/// whole hex pairs.
std::size_t consumed(std::string_view text, std::string& out) {
  out.resize(text.size() / 2);
  std::size_t n = 0;
  for (; n < out.size(); ++n) {
    const std::uint8_t hi = kCharClass[static_cast<unsigned char>(text[2 * n])];
    const std::uint8_t lo =
        kCharClass[static_cast<unsigned char>(text[2 * n + 1])];
    if ((hi | lo) > 15) break;
    out[n] = static_cast<char>((hi << 4) | lo);
  }
  out.resize(n);
  return 2 * n;
}

std::optional<std::string> decode(std::string_view hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  std::string bytes;
  if (consumed(hex, bytes) != hex.size()) return std::nullopt;
  return bytes;
}

}  // namespace reference_hex

}  // namespace

TEST(ServeProtocol, HexCodecMatchesTheReferenceCodec) {
  std::mt19937_64 rng(0x4E7);
  const auto random_bytes = [&](std::size_t n) {
    std::string bytes(n, '\0');
    for (char& b : bytes) b = static_cast<char>(rng() % 256);
    return bytes;
  };
  std::vector<std::size_t> lengths;
  for (std::size_t n = 0; n <= 40; ++n) lengths.push_back(n);
  for (const std::size_t n : {63, 64, 65, 255, 256, 4097}) lengths.push_back(n);
  for (const std::size_t n : lengths) {
    SCOPED_TRACE(n);
    const std::string bytes = random_bytes(n);
    const std::string hex = sv::hex_encode(bytes);
    EXPECT_EQ(hex, reference_hex::encode(bytes));
    EXPECT_EQ(sv::hex_decode(hex), bytes);
    std::string upper = hex;
    for (std::size_t i = 0; i < upper.size(); i += 1 + rng() % 2) {
      upper[i] = static_cast<char>(std::toupper(upper[i]));
    }
    EXPECT_EQ(sv::hex_decode(upper), reference_hex::decode(upper));
    EXPECT_EQ(sv::hex_decode(upper), bytes);
    // Odd lengths, and every prefix, decode or not as the reference does.
    for (std::size_t end = 0; end <= hex.size() && end <= 80; ++end) {
      const std::string_view prefix = std::string_view(upper).substr(0, end);
      EXPECT_EQ(sv::hex_decode(prefix), reference_hex::decode(prefix));
    }
  }
  // A non-hex byte at every position of 5 blocks of 8 pairs, with more
  // blocks behind it: every prefix is refused exactly where the reference
  // stops.
  const std::string hex = sv::hex_encode(random_bytes(48));
  for (std::size_t at = 0; at < 80; ++at) {
    for (const char bad : {'g', 'G', '/', ':', '@', '`', ' ', '\0', '\xff'}) {
      std::string text = hex;
      text[at] = bad;
      std::string ignored;
      const std::size_t stop = reference_hex::consumed(text, ignored);
      ASSERT_EQ(stop, at - at % 2);
      for (const std::size_t end : {at, at + 1, at + 2, at + 17, text.size()}) {
        const std::string_view prefix = std::string_view(text).substr(0, end);
        EXPECT_EQ(sv::hex_decode(prefix), reference_hex::decode(prefix))
            << "bad byte at " << at << ", prefix " << end;
      }
    }
  }
}

TEST(ServeProtocol, SubmitHexIsRefusedAtEveryNonHexByte) {
  // parse_request_line decodes SUBMIT hex in the pass that finds the
  // token's end: a non-hex byte anywhere in the token refuses the line, as
  // the reference decode refuses the token, and the valid line parses.
  const sh::SweepSpec spec = small_spec();
  std::string line = sv::submit_line(3, spec);
  line.pop_back();
  const std::size_t begin = line.find(' ', 7) + 1;
  const std::string_view token = std::string_view(line).substr(begin);
  ASSERT_EQ(reference_hex::decode(token), sh::serialize_sweep_spec(spec));
  EXPECT_EQ(sh::spec_digest(sv::parse_request_line(line).spec),
            sh::spec_digest(spec));
  std::string upper = line;
  for (std::size_t i = begin; i < upper.size(); ++i) {
    upper[i] = static_cast<char>(std::toupper(upper[i]));
  }
  EXPECT_EQ(sh::spec_digest(sv::parse_request_line(upper).spec),
            sh::spec_digest(spec));
  for (std::size_t at = begin; at < line.size(); ++at) {
    std::string bad = line;
    bad[at] = (at % 3 == 0) ? 'g' : (at % 3 == 1) ? '\xff' : '\0';
    ASSERT_FALSE(reference_hex::decode(std::string_view(bad).substr(begin)));
    EXPECT_EQ(request_error(bad), "SUBMIT payload is not valid hex")
        << "bad byte at " << at - begin;
  }
  // An odd token: every pair decodes, its last character does not.
  EXPECT_EQ(request_error(line + "a"), "SUBMIT payload is not valid hex");
}
