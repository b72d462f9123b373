#include "serve/server.hpp"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string_view>
#include <system_error>
#include <vector>

#include "util/parse.hpp"

namespace parallax::serve {

namespace {

using Clock = std::chrono::steady_clock;

/// One non-blocking write: send() on sockets, where MSG_NOSIGNAL turns a
/// vanished peer into an error return instead of a SIGPIPE kill; write()
/// on the pipes and files a lent connection may hold.
ssize_t write_some(int fd, const char* data, std::size_t size) {
  const ssize_t n = ::send(fd, data, size, MSG_DONTWAIT | MSG_NOSIGNAL);
  if (n < 0 && errno == ENOTSOCK) return ::write(fd, data, size);
  return n;
}

/// Shared sink for one connection's frames: worker threads (cell frames),
/// the dispatcher (done frames), and the loop thread (stats/error frames)
/// interleave here, one frame at a time. Nothing blocks: writers enqueue
/// under the lock and poke the loop's wake pipe, and the loop drains with
/// non-blocking writes when poll() reports the fd writable — a peer that
/// stops reading can never wedge a worker thread.
///
/// The first failed write — or a frame that would push the unflushed bytes
/// past max_pending — marks the peer dead; later frames are dropped and
/// the injected on_dead hook cancels in-flight work exactly once.
class FrameSink {
 public:
  /// `fd` must be non-blocking; `wake_fd` is the write end of the loop's
  /// wake pipe.
  FrameSink(int fd, int wake_fd, std::size_t max_pending)
      : fd_(fd), wake_fd_(wake_fd), max_pending_(max_pending) {}

  void set_on_dead(std::function<void()> on_dead) {
    on_dead_ = std::move(on_dead);
  }

  void write_frame(std::string frame) {
    std::function<void()> notify;
    bool poke = false;
    {
      std::lock_guard lock(mutex_);
      if (!dead_) {
        if (max_pending_ > 0 && pending_bytes_ + frame.size() > max_pending_) {
          dead_ = true;
          notify = on_dead_;
        } else {
          if (pending_bytes_ == 0) last_progress_ = Clock::now();
          pending_bytes_ += frame.size();
          pending_.push_back(std::move(frame));
          poke = true;
        }
      }
    }
    if (notify) notify();
    if (poke) poke_wake();
  }

  /// Drains as much as the fd accepts right now. Called from the poll
  /// thread; the fd is non-blocking, so the held lock stays cheap.
  void on_writable() {
    std::function<void()> notify;
    {
      std::lock_guard lock(mutex_);
      if (dead_) return;
      while (!pending_.empty()) {
        const std::string& front = pending_.front();
        const ssize_t n = write_some(fd_, front.data() + front_offset_,
                                     front.size() - front_offset_);
        if (n < 0) {
          if (errno == EINTR) continue;
          if (errno == EAGAIN || errno == EWOULDBLOCK) break;
          dead_ = true;
          notify = on_dead_;
          break;
        }
        last_progress_ = Clock::now();
        pending_bytes_ -= static_cast<std::size_t>(n);
        front_offset_ += static_cast<std::size_t>(n);
        if (front_offset_ == front.size()) {
          pending_.pop_front();
          front_offset_ = 0;
        }
      }
    }
    if (notify) notify();
  }

  /// Kills the sink from outside (stall detach, read error): drops pending
  /// frames and fires on_dead exactly once.
  void mark_dead() {
    std::function<void()> notify;
    {
      std::lock_guard lock(mutex_);
      if (dead_) return;
      dead_ = true;
      notify = on_dead_;
    }
    if (notify) notify();
  }

  /// Silences the sink before its fd is released (normal teardown, where
  /// no producer is left): late frames are dropped without firing on_dead.
  void retire() {
    std::lock_guard lock(mutex_);
    dead_ = true;
  }

  [[nodiscard]] bool dead() const {
    std::lock_guard lock(mutex_);
    return dead_;
  }

  [[nodiscard]] std::size_t pending_bytes() const {
    std::lock_guard lock(mutex_);
    return pending_bytes_;
  }

  [[nodiscard]] bool want_write() const {
    std::lock_guard lock(mutex_);
    return !dead_ && pending_bytes_ > 0;
  }

  /// True when frames have been pending without a single byte of progress
  /// for longer than `timeout` — the stalled-reader predicate.
  [[nodiscard]] bool stalled(std::chrono::seconds timeout) const {
    std::lock_guard lock(mutex_);
    return !dead_ && pending_bytes_ > 0 &&
           Clock::now() - last_progress_ > timeout;
  }

 private:
  void poke_wake() const {
    // Best effort: a full pipe already guarantees a pending wakeup.
    (void)!::write(wake_fd_, "x", 1);
  }

  const int fd_;
  const int wake_fd_;
  const std::size_t max_pending_;
  mutable std::mutex mutex_;
  bool dead_ = false;
  std::deque<std::string> pending_;
  std::size_t pending_bytes_ = 0;
  std::size_t front_offset_ = 0;
  Clock::time_point last_progress_ = Clock::now();
  std::function<void()> on_dead_;
};

/// Best-effort request id from a line that failed to parse, so the error
/// frame still names the request when the id token itself was readable.
std::uint64_t best_effort_id(std::string_view line) {
  constexpr std::string_view kSpace = " \t\r\v\f";
  std::size_t pos = 0;
  const auto next_token = [&]() -> std::string_view {
    const std::size_t begin = line.find_first_not_of(kSpace, pos);
    if (begin == std::string_view::npos) {
      pos = line.size();
      return {};
    }
    std::size_t end = line.find_first_of(kSpace, begin);
    if (end == std::string_view::npos) end = line.size();
    pos = end;
    return line.substr(begin, end - begin);
  };
  if (next_token().empty()) return 0;
  return util::parse_u64(next_token()).value_or(0);
}

[[nodiscard]] bool blank_line(std::string_view line) {
  return line.find_first_not_of(" \t\r\v\f") == std::string_view::npos;
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// The loop's self-pipe, both ends non-blocking: a thread that enqueues a
/// frame pokes the write end, and poll() watches the read end.
struct WakePipe {
  int fds[2] = {-1, -1};

  WakePipe() = default;
  WakePipe(const WakePipe&) = delete;
  WakePipe& operator=(const WakePipe&) = delete;
  ~WakePipe() {
    const int saved = errno;  // a failed serve_unix_socket reports errno
    for (const int fd : fds) {
      if (fd >= 0) ::close(fd);
    }
    errno = saved;
  }

  /// False, with errno set, when the pipe cannot be made.
  [[nodiscard]] bool open() {
    return ::pipe(fds) == 0 && set_nonblocking(fds[0]) &&
           set_nonblocking(fds[1]);
  }
};

/// Sets O_NONBLOCK on one lent fd and puts the caller's flags back on scope
/// exit. Two guards on one fd (in_fd == out_fd) restore correctly because
/// they unwind in reverse order.
class NonBlockingLoan {
 public:
  explicit NonBlockingLoan(int fd) : fd_(fd), flags_(::fcntl(fd, F_GETFL, 0)) {
    if (flags_ < 0 || ::fcntl(fd, F_SETFL, flags_ | O_NONBLOCK) != 0) {
      throw std::system_error(errno, std::generic_category(),
                              "serve_connection: cannot make a lent fd "
                              "non-blocking");
    }
  }
  NonBlockingLoan(const NonBlockingLoan&) = delete;
  NonBlockingLoan& operator=(const NonBlockingLoan&) = delete;
  ~NonBlockingLoan() { (void)::fcntl(fd_, F_SETFL, flags_); }

 private:
  const int fd_;
  const int flags_;
};

/// One multiplexed connection: accepted from the listener (owned, so the
/// loop closes its socket) or lent by serve_connection (the caller keeps
/// its fds). Owned (shared) by the event loop and by every submitted
/// ticket's callbacks, so the sink outlives any late frame; the loop's
/// bookkeeping fields (fds, inbuf, reading, submitted) are touched by the
/// loop thread only.
struct Connection : std::enable_shared_from_this<Connection> {
  int in_fd = -1;
  int out_fd = -1;  // -1 once detached or finished
  bool owned = false;
  std::uint64_t client_id = 0;
  std::shared_ptr<FrameSink> sink;
  Clock::time_point connected_at = Clock::now();

  // Loop-thread-only input state.
  std::string inbuf;
  std::size_t scanned = 0;  // newline search resumes here, never rescans
  bool discarding = false;
  bool reading = true;
  std::size_t submitted = 0;

  /// Recursive: a done-frame write that overflows the sink re-enters
  /// through on_dead -> cancel_inflight on the same thread.
  std::recursive_mutex tickets_mutex;
  std::map<std::uint64_t, std::shared_ptr<Ticket>> inflight;
  std::set<std::uint64_t> finished_early;

  [[nodiscard]] bool attached() const { return out_fd >= 0; }

  /// Lets go of the fds: closes an accepted socket (in_fd == out_fd), and
  /// only forgets a lent pair, which goes back to serve_connection's caller.
  void release() {
    if (owned) ::close(in_fd);
    in_fd = -1;
    out_fd = -1;
  }

  [[nodiscard]] bool inflight_empty() {
    std::lock_guard lock(tickets_mutex);
    return inflight.empty();
  }

  void cancel_inflight() {
    std::lock_guard lock(tickets_mutex);
    for (const auto& [id, ticket] : inflight) ticket->cancel();
  }
};

/// The poll()-driven loop state. serve_unix_socket drives one with a
/// listener; serve_connection drives one without, over a single lent
/// connection. The loop ends once the listener is closed and no connection
/// is left.
class Farm {
 public:
  /// `listener` < 0 serves only connections attached by the caller.
  Farm(std::string path, int listener, int wake_read, int wake_write,
       SweepService& service, const ServerOptions& options)
      : path_(std::move(path)),
        listener_(listener),
        wake_read_(wake_read),
        wake_write_(wake_write),
        service_(service),
        options_(options) {}

  std::shared_ptr<Connection> attach(int in_fd, int out_fd,
                                     std::uint64_t client_id, bool owned) {
    auto connection = std::make_shared<Connection>();
    connection->in_fd = in_fd;
    connection->out_fd = out_fd;
    connection->owned = owned;
    connection->client_id = client_id;
    connection->sink = std::make_shared<FrameSink>(
        out_fd, wake_write_, options_.max_client_buffered_bytes);
    // on_dead may fire from a worker thread mid-frame; it only touches the
    // ticket map (its own mutex), and the loop's next reap notices dead()
    // and detaches.
    connection->sink->set_on_dead(
        [weak = std::weak_ptr<Connection>(connection)] {
          if (const auto alive = weak.lock()) alive->cancel_inflight();
        });
    service_.register_client(client_id);
    connections_.push_back(connection);
    return connection;
  }

  bool run() {
    while (!(listener_ < 0 && connections_.empty())) {
      if (options_.stop != nullptr &&
          options_.stop->load(std::memory_order_relaxed)) {
        begin_drain();
      }
      reap_connections();
      if (listener_ < 0 && connections_.empty()) break;
      poll_once();
    }
    if (!ok_ && saved_errno_ != 0) errno = saved_errno_;
    return ok_;
  }

 private:
  void begin_drain() {
    if (draining_) return;
    draining_ = true;
    // Stop accepting and release the name first: a drained session must
    // not leave a socket file that connects to nothing.
    if (listener_ >= 0) {
      ::close(listener_);
      listener_ = -1;
      ::unlink(path_.c_str());
    }
    for (const auto& connection : connections_) {
      connection->reading = false;
      connection->cancel_inflight();
    }
  }

  void fail(int error) {
    ok_ = false;
    if (saved_errno_ == 0) saved_errno_ = error;
    begin_drain();
  }

  /// Detaches a misbehaving connection: the sink dies (cancelling its
  /// in-flight work), the fds are released immediately so poll() never
  /// waits on them again, and the Connection lingers only until its
  /// tickets finish.
  void detach(Connection& connection) {
    connection.sink->mark_dead();
    connection.reading = false;
    connection.release();
  }

  /// Per-iteration bookkeeping: stall detection, dead-sink detach, and
  /// removal of connections that finished (input done, tickets done,
  /// frames flushed).
  void reap_connections() {
    const auto timeout = std::chrono::seconds(options_.write_timeout_seconds);
    for (auto it = connections_.begin(); it != connections_.end();) {
      Connection& connection = **it;
      if (connection.attached() &&
          ((options_.write_timeout_seconds > 0 &&
            connection.sink->stalled(timeout)) ||
           connection.sink->dead())) {
        detach(connection);
      }
      const bool idle = connection.inflight_empty();
      if (!connection.attached()) {
        // Already detached: linger until the cancelled tickets finish so a
        // drain never returns with the service mid-request.
        it = idle ? connections_.erase(it) : std::next(it);
        continue;
      }
      if (!connection.reading && idle && !connection.sink->want_write()) {
        connection.sink->retire();
        connection.release();
        it = connections_.erase(it);
        continue;
      }
      ++it;
    }
  }

  void poll_once() {
    std::vector<pollfd> fds;
    std::vector<Connection*> owners;  // parallel to fds; null for the loop's
    fds.reserve(2 * connections_.size() + 2);
    const auto watch = [&](int fd, short events, Connection* owner) {
      fds.push_back({fd, events, 0});
      owners.push_back(owner);
    };
    if (listener_ >= 0) watch(listener_, POLLIN, nullptr);
    watch(wake_read_, POLLIN, nullptr);
    // One entry per direction that has work: in_fd and out_fd may differ
    // (a lent pair), and an idle fd whose peer hung up must not make
    // poll() spin while the connection's tickets finish.
    for (const auto& connection : connections_) {
      if (!connection->attached()) continue;
      if (connection->sink->want_write()) {
        watch(connection->out_fd, POLLOUT, connection.get());
      }
      if (connection->reading) {
        watch(connection->in_fd, POLLIN, connection.get());
      }
    }
    // 100ms tick: bounds the latency of the stop flag, stall detection,
    // and ticket-finished cleanup even when no fd fires.
    const int ready = ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 100);
    if (ready < 0) {
      if (errno != EINTR) fail(errno);
      return;
    }
    if (ready == 0) return;
    for (std::size_t i = 0; i < fds.size(); ++i) {
      const pollfd& entry = fds[i];
      if (entry.revents == 0) continue;
      Connection* connection = owners[i];
      if (connection == nullptr) {
        if (entry.fd == wake_read_) {
          char sinkhole[256];
          while (::read(wake_read_, sinkhole, sizeof(sinkhole)) > 0) {
          }
        } else {
          accept_ready();
        }
        continue;
      }
      // An earlier entry this round may have detached the connection; the
      // owners pointer stays valid (connections_ holds shared_ptrs and reap
      // runs before poll), so only the fds need re-checking. An error or
      // hangup on the output is surfaced by the write attempt itself.
      if ((entry.events & POLLOUT) != 0) {
        if (connection->out_fd == entry.fd) connection->sink->on_writable();
      } else if (connection->reading && connection->in_fd == entry.fd) {
        handle_readable(*connection);
      }
    }
  }

  void accept_ready() {
    for (;;) {
      const int fd = ::accept(listener_, nullptr, nullptr);
      if (fd < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        if (errno == EINTR || errno == ECONNABORTED) continue;
        // Surface the failure to the caller: a serve session that silently
        // stopped accepting would strand the rest of a campaign. Drain
        // first so connected clients still get their frames.
        fail(errno);
        return;
      }
      if (!set_nonblocking(fd)) {
        ::close(fd);
        continue;
      }
      (void)attach(fd, fd, next_client_id_++, /*owned=*/true);
    }
  }

  void handle_readable(Connection& connection) {
    char chunk[1 << 16];
    // Bounded per wakeup so one firehose client cannot monopolize the
    // loop; poll() immediately reports the fd readable again.
    for (int rounds = 0; rounds < 16 && connection.reading; ++rounds) {
      const ssize_t got = ::read(connection.in_fd, chunk, sizeof(chunk));
      if (got < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        detach(connection);  // reset mid-stream: peer is gone
        return;
      }
      if (got == 0) {
        // Orderly EOF: stop reading, let in-flight work finish and flush.
        connection.reading = false;
        return;
      }
      connection.inbuf.append(chunk, static_cast<std::size_t>(got));
      process_buffer(connection);
    }
  }

  void process_buffer(Connection& connection) {
    while (connection.reading) {
      const std::size_t newline =
          connection.inbuf.find('\n', connection.scanned);
      if (newline == std::string::npos) {
        if (connection.discarding) {
          connection.inbuf.clear();
          connection.scanned = 0;
        } else if (connection.inbuf.size() > options_.max_line_bytes) {
          connection.sink->write_frame(error_frame(
              best_effort_id(
                  std::string_view(connection.inbuf).substr(0, 256)),
              "request line exceeds the size limit"));
          connection.inbuf.clear();
          connection.scanned = 0;
          connection.discarding = true;
        } else {
          connection.scanned = connection.inbuf.size();
        }
        return;
      }
      const std::string_view line(connection.inbuf.data(), newline);
      if (connection.discarding) {
        connection.discarding = false;  // the oversized line finally ended
      } else {
        handle_line(connection, line);
      }
      connection.inbuf.erase(0, newline + 1);
      connection.scanned = 0;
    }
  }

  void handle_line(Connection& connection, std::string_view line) {
    if (blank_line(line)) return;
    const std::shared_ptr<FrameSink>& sink = connection.sink;
    RequestLine request;
    try {
      request = parse_request_line(line);
    } catch (const std::exception& error) {
      sink->write_frame(error_frame(best_effort_id(line), error.what()));
      return;
    }
    switch (request.verb) {
      case RequestLine::Verb::kQuit:
        connection.reading = false;
        return;
      case RequestLine::Verb::kStop:
        // Acknowledge before draining so the requester sees the ack even
        // though drain stops all reading; the frame flushes with the rest.
        // The flag tells the embedder the session is over.
        sink->write_frame(done_frame(request.id, Summary{}));
        if (options_.stop != nullptr) {
          options_.stop->store(true, std::memory_order_relaxed);
        }
        begin_drain();
        return;
      case RequestLine::Verb::kStats:
        sink->write_frame(
            stats_frame(request.id, snapshot_stats()));
        return;
      case RequestLine::Verb::kCancel: {
        std::shared_ptr<Ticket> ticket;
        {
          std::lock_guard lock(connection.tickets_mutex);
          if (const auto it = connection.inflight.find(request.id);
              it != connection.inflight.end()) {
            ticket = it->second;
          }
        }
        if (ticket) {
          ticket->cancel();
        } else {
          sink->write_frame(error_frame(
              request.id, "CANCEL names an unknown or completed request id"));
        }
        return;
      }
      case RequestLine::Verb::kSubmit:
        break;
    }
    const std::uint64_t id = request.id;
    {
      std::lock_guard lock(connection.tickets_mutex);
      if (connection.inflight.count(id) != 0) {
        sink->write_frame(
            error_frame(id, "SUBMIT reuses an in-flight request id"));
        return;
      }
      if (options_.max_inflight_per_client > 0 &&
          connection.inflight.size() >= options_.max_inflight_per_client) {
        sink->write_frame(error_frame(
            id, "SUBMIT rejected: client exceeds max in-flight requests "
                "(limit " +
                    std::to_string(options_.max_inflight_per_client) + ")"));
        return;
      }
    }
    // Callbacks share ownership of the Connection, so a ticket finishing
    // after detach still has a (dead, harmless) sink to drop frames into.
    auto shared = connection.shared_from_this();
    auto ticket = service_.submit(
        std::move(request.spec),
        [sink, id](const sweep::Cell& cell) {
          sink->write_frame(cell_frame(id, cell));
        },
        [shared, id](const Summary& summary) {
          // Frame + prune in one critical section: a CANCEL or re-SUBMIT
          // racing the completion blocks on the mutex until the id is
          // pruned, so it can never hit the stale ticket. The enqueue also
          // pokes the wake pipe *before* the erase, so the loop cannot
          // miss the transition to idle and close the pipe under a later
          // poke.
          std::lock_guard lock(shared->tickets_mutex);
          shared->sink->write_frame(done_frame(id, summary));
          if (shared->inflight.erase(id) == 0) {
            shared->finished_early.insert(id);
          }
        },
        id, connection.client_id,
        // A warm hit's cached bytes go into its frame undecoded.
        [sink, id](const sweep::Cell& cell, const cache::ScannedCell& cached) {
          sink->write_frame(cell_frame(id, cell, cached));
        });
    ++connection.submitted;
    {
      std::lock_guard lock(connection.tickets_mutex);
      if (connection.finished_early.erase(id) == 0) {
        connection.inflight[id] = ticket;
      }
    }
    if (sink->dead()) ticket->cancel();
  }

  /// The service's session totals with the connection-level columns only
  /// the server knows (unflushed bytes, connection age) overlaid for every
  /// still-connected client.
  [[nodiscard]] SessionStats snapshot_stats() const {
    SessionStats stats = service_.session_stats();
    const Clock::time_point now = Clock::now();
    for (ClientStats& row : stats.clients) {
      for (const auto& connection : connections_) {
        if (connection->client_id != row.client_id ||
            !connection->attached()) {
          continue;
        }
        row.connected = true;
        row.bytes_queued = connection->sink->pending_bytes();
        row.connected_seconds =
            std::chrono::duration<double>(now - connection->connected_at)
                .count();
      }
    }
    return stats;
  }

  const std::string path_;
  int listener_;
  const int wake_read_;
  const int wake_write_;
  SweepService& service_;
  const ServerOptions& options_;
  std::vector<std::shared_ptr<Connection>> connections_;
  std::uint64_t next_client_id_ = 1;  // 0 is the lent (stdio) connection
  bool draining_ = false;
  bool ok_ = true;
  int saved_errno_ = 0;
};

}  // namespace

std::size_t serve_connection(int in_fd, int out_fd, SweepService& service,
                             const ServerOptions& options) {
  const NonBlockingLoan in_loan(in_fd);
  const NonBlockingLoan out_loan(out_fd);
  WakePipe wake;
  if (!wake.open()) {
    throw std::system_error(errno, std::generic_category(),
                            "serve_connection: cannot create the wake pipe");
  }
  Farm farm({}, /*listener=*/-1, wake.fds[0], wake.fds[1], service, options);
  const auto connection =
      farm.attach(in_fd, out_fd, /*client_id=*/0, /*owned=*/false);
  (void)farm.run();
  return connection->submitted;
}

bool serve_unix_socket(const std::string& path, SweepService& service,
                       const ServerOptions& options) {
  // bind() creates the socket file before listen() makes it connectable,
  // so the socket listens under a staging name and is renamed onto `path`
  // only then: a client that sees `path` is never refused.
  const std::string staging = path + ".tmp";
  sockaddr_un addr{};
  if (staging.size() >= sizeof(addr.sun_path)) {
    errno = ENAMETOOLONG;
    return false;
  }
  const int listener = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener < 0) return false;
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, staging.c_str(), staging.size() + 1);
  ::unlink(staging.c_str());
  WakePipe wake;
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0 ||
      ::listen(listener, 16) != 0 || !set_nonblocking(listener) ||
      !wake.open() || ::rename(staging.c_str(), path.c_str()) != 0) {
    const int saved = errno;
    ::close(listener);
    ::unlink(staging.c_str());  // a failure after bind leaves the file
    errno = saved;
    return false;
  }
  Farm farm(path, listener, wake.fds[0], wake.fds[1], service, options);
  return farm.run();
}

}  // namespace parallax::serve
