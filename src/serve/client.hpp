// Client for a running `parallax serve` session. Submits a SweepSpec over
// one connection, streams the cell frames back into a caller callback as
// they arrive, and reassembles the flat circuit-major sweep::Result the
// in-process sweep::run would have produced — for a fully-executed request
// the reassembly is byte-identical under shard::canonical_bytes.
//
// This is what `parallax_cli bench --socket PATH` speaks to a serve
// socket, and what `parallax serve submit` wraps. One connection serves
// many sequential run() calls (the warm-session pattern: the second run of
// the same spec replays from the server's cache with zero anneals).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "shard/spec.hpp"
#include "sweep/sweep.hpp"

namespace parallax::serve {

/// Rebuilds the flat circuit-major sweep::Result of one request from the
/// cells it streams, in any order, as Client::run does. Not thread-safe.
class Reassembly {
 public:
  /// `spec` must outlive the reassembly.
  explicit Reassembly(const shard::SweepSpec& spec);
  Reassembly(const Reassembly&) = delete;
  Reassembly& operator=(const Reassembly&) = delete;

  /// Stores a streamed cell at its flat index and returns the stored cell.
  /// Throws ServeError when the cell's indices lie outside the request's
  /// matrix or its cell was already placed.
  const sweep::Cell& place(sweep::Cell&& cell);

  /// The reassembled Result, once every cell has streamed: each cell never
  /// placed gets its labels, marked cancelled when `summary` says the
  /// request was cancelled and skipped otherwise, as sweep::run labels
  /// them; the counters come from `summary`.
  [[nodiscard]] sweep::Result finish(const Summary& summary) &&;

 private:
  const shard::SweepSpec& spec_;
  sweep::Matrix matrix_;
  sweep::Result result_;
  std::vector<char> placed_;
};

/// Reads the response frames of one connection through one receive buffer.
/// Each read takes whatever the socket holds, and a frame's header and
/// payload are checked and decoded where they lie. The buffer grows only
/// by what has arrived: a header that declares a payload the peer never
/// sends costs at most twice the bytes received, plus 1 MiB.
class FrameReader {
 public:
  /// Reads from `fd`, which the reader does not own.
  explicit FrameReader(int fd) noexcept : fd_(fd) {}

  /// The next frame. Throws ServeError when the connection closes or fails
  /// before the frame is whole, or when the frame is malformed.
  [[nodiscard]] Frame next();

 private:
  /// Makes room toward the `need` bytes the frame at begin_ takes in all,
  /// as far as the growth rule allows, and reads once; false on end of
  /// stream or a failed read.
  bool fill(std::size_t need);

  int fd_;
  std::string buffer_;
  /// buffer_[begin_, end_) holds bytes received and not yet decoded.
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
};

struct ClientOutcome {
  /// Cells in flat circuit-major order. Cells the server never ran
  /// (cancelled request) carry labels with Cell::cancelled set.
  sweep::Result result;
  Summary summary;
};

class Client {
 public:
  /// Connects to a serve unix socket (what `bench --socket` names). Throws
  /// ServeError when the socket cannot be reached.
  explicit Client(const std::string& socket_path);
  /// Adopts an already-connected descriptor (tests hand in a socketpair
  /// end; closed on destruction).
  explicit Client(int connected_fd) noexcept
      : fd_(connected_fd), frames_(connected_fd) {}
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Submits `spec` and blocks until its kDone frame, invoking `on_cell`
  /// (from this thread, in frame-arrival order) per streamed cell. Throws
  /// ServeError on any connection or protocol failure, including a kError
  /// response; a request-level failure the server completed politely is
  /// returned in Summary::error instead.
  ClientOutcome run(const shard::SweepSpec& spec,
                    const std::function<void(const sweep::Cell&)>& on_cell = {});

  /// Queries the session-wide accounting snapshot (requests served, cells
  /// executed, cache hit and anneal counters). Throws ServeError on any
  /// connection or protocol failure, including a kError response.
  SessionStats stats();

  /// Asks the server to stop this connection after in-flight work drains.
  void quit();

  /// Asks the server to drain the whole session gracefully (STOP): the
  /// listener stops accepting, in-flight tickets are cancelled, every
  /// connection's done frames flush, and the socket file is unlinked.
  /// Blocks until the server's kDone acknowledgement. Throws ServeError on
  /// any connection or protocol failure, including a kError response.
  void stop();

 private:
  /// Writes one request line; throws ServeError if the connection refuses.
  void send(const std::string& line);
  /// Reads, checks and decodes the next frame, which must answer request
  /// `id`; throws ServeError on a closed connection or a protocol violation.
  Frame read_response(std::uint64_t id);

  int fd_ = -1;
  FrameReader frames_{-1};
  std::uint64_t last_id_ = 0;
};

}  // namespace parallax::serve
