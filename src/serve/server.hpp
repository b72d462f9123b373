// The farm front-end of `parallax serve`: line-framed requests in,
// length-prefixed frames out. One poll()-driven loop serves both
// transports; it owns line framing, quotas, stall detection and detach:
//
//   * serve_unix_socket — the multi-tenant farm that `parallax_cli bench
//     --socket PATH` and `serve submit` target: the loop accepts and
//     multiplexes many concurrent AF_UNIX connections over one
//     SweepService.
//   * serve_connection — the same loop without a listener, over one lent
//     fd pair (stdio for `parallax serve` in a pipeline, a socketpair in
//     tests).
//
// Every connection has a non-blocking per-connection write buffer that
// only the loop thread drains, so no worker thread ever blocks on a peer.
//
// Fault containment: a malformed request line (bad verb, bad hex, corrupt
// spec bytes, unknown cancel id, duplicate submit id, overlong line) is
// answered with a kError frame and the connection keeps serving — only
// QUIT, input EOF, STOP, or an unwritable output ends a connection. A
// client that disappears or stops reading mid-request (read or write
// failure, buffered-byte overflow, write-timeout stall) is detached: the
// loop stops reading from it, its in-flight work is cancelled so the
// session's pool is not burned for a reader that is gone, and every other
// client's frames keep flowing.
//
// Tenancy: each connection is one client. The lent connection is client 0;
// accepted sockets count from 1 in accept order. Quotas bound what any one
// client can hold — queued-but-unfinished requests (rejected with a kError
// frame naming the limit) and unflushed frame bytes (overflow detaches the
// connection). Scheduling across clients is the service's round-robin, so
// quotas plus fair-share keep one tenant from starving the rest.
//
// Shutdown: a STOP request, the ServerOptions::stop flag (the CLI's signal
// handlers), or an accept failure all drain the session gracefully — the
// listener closes and the socket file is unlinked immediately, in-flight
// tickets are cancelled, every connection's done frames flush, and the
// loop returns. Every exit path closes the listener and unlinks the socket.
#pragma once

#include <atomic>
#include <cstddef>
#include <string>

#include "serve/service.hpp"

namespace parallax::serve {

struct ServerOptions {
  /// Request lines longer than this are discarded (through the next
  /// newline) with a kError frame; bounds the line buffer against a client
  /// that streams garbage without newlines. The default comfortably fits a
  /// paper-scale sweep spec in hex.
  std::size_t max_line_bytes = 256ull << 20;
  /// A connection whose peer accepts no bytes for this long while frames
  /// are pending is detached (in-flight work cancelled, fds released) — a
  /// stalled reader costs the session one timeout, never a wedged worker.
  /// 0 disables the bound.
  std::size_t write_timeout_seconds = 60;
  /// Per-client cap on requests submitted but not yet finished; a SUBMIT
  /// over the cap is rejected with a kError frame naming the limit.
  std::size_t max_inflight_per_client = 64;
  /// Per-client cap on frame bytes accepted for the connection but not yet
  /// written to it. A frame that would exceed it marks the client dead and
  /// detaches it — the bound that keeps a slow reader from buffering the
  /// session's memory away. 0 disables the bound.
  std::size_t max_client_buffered_bytes = 256ull << 20;
  /// External graceful-drain request (the CLI points its SIGINT/SIGTERM
  /// handlers here). The loop polls it every 100 ms; a STOP request on
  /// either transport also sets it, telling the embedder the session is
  /// over.
  std::atomic<bool>* stop = nullptr;
};

/// Serves one lent connection (client 0) on the farm loop until QUIT, STOP,
/// the stop flag, input EOF, or a detach; returns once every request
/// submitted on it has finished and its frames are flushed (or its output
/// died). Returns the number of requests submitted.
///
/// The fds stay the caller's: they are never closed. Both are switched to
/// O_NONBLOCK for the call and get the caller's flags back on return
/// (O_NONBLOCK belongs to the open file description, which stdio may share
/// with a parent shell). Throws std::system_error when the flags cannot be
/// set or the loop's wake pipe cannot be created.
///
/// The lent connection is held to the same rules as a socket: a stalled
/// output detaches after write_timeout_seconds; once its output dies (write
/// error, byte cap, or stall) or its input fails to read, the loop stops
/// reading from it and returns as soon as its cancelled requests finish,
/// without submitting the lines that follow.
std::size_t serve_connection(int in_fd, int out_fd, SweepService& service,
                             const ServerOptions& options = {});

/// Listens on an AF_UNIX socket at `path` (replacing any stale socket
/// file) and multiplexes concurrent connections over one poll() loop until
/// a STOP request or ServerOptions::stop drains the session — then returns
/// true. The socket is bound and listening at `path + ".tmp"` before it is
/// renamed onto `path`, so `path` appears only once a connect to it
/// succeeds; waiting for the file is a complete readiness check. The
/// staging suffix makes the longest usable `path` 4 bytes shorter than
/// sockaddr_un allows (ENAMETOOLONG). Returns false when the socket cannot
/// be created/bound/listened/renamed or accept fails hard (errno describes
/// why); the listener is closed and the socket file unlinked on every exit
/// path, graceful or not.
bool serve_unix_socket(const std::string& path, SweepService& service,
                       const ServerOptions& options = {});

}  // namespace parallax::serve
