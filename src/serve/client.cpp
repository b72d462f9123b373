#include "serve/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

namespace parallax::serve {

Client::Client(const std::string& socket_path) {
  sockaddr_un addr{};
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    throw ServeError("serve socket path too long: " + socket_path);
  }
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    throw ServeError(std::string("cannot create a unix socket: ") +
                     std::strerror(errno));
  }
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, socket_path.c_str(), socket_path.size() + 1);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    throw ServeError("cannot connect to serve socket '" + socket_path +
                     "': " + std::strerror(saved));
  }
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::send(const std::string& line) {
  if (!write_all(fd_, line)) {
    throw ServeError("cannot write to the serve connection");
  }
}

Frame Client::read_response(std::uint64_t id) {
  std::string bytes;
  if (!read_exact(fd_, bytes, kFrameHeaderBytes)) {
    throw ServeError("serve connection closed mid-response");
  }
  const FrameHeader header = parse_frame_header(bytes);
  std::string payload;
  if (!read_exact(fd_, payload,
                  static_cast<std::size_t>(header.payload_size))) {
    throw ServeError("serve connection closed mid-frame");
  }
  Frame frame = decode_frame(header, payload);
  if (frame.request_id != id) {
    // One request per connection at a time; anything else is a protocol
    // violation (including id-0 error frames for lines we never sent).
    throw ServeError("serve response names an unexpected request id");
  }
  return frame;
}

void Client::quit() { send(quit_line()); }

void Client::stop() {
  const std::uint64_t id = ++last_id_;
  send(stop_line(id));
  const Frame frame = read_response(id);
  if (frame.type == FrameType::kError) {
    throw ServeError("serve stop request rejected: " + frame.message);
  }
  if (frame.type != FrameType::kDone) {
    throw ServeError("serve answered STOP with the wrong frame type");
  }
}

SessionStats Client::stats() {
  const std::uint64_t id = ++last_id_;
  send(stats_line(id));
  Frame frame = read_response(id);
  if (frame.type == FrameType::kError) {
    throw ServeError("serve stats request rejected: " + frame.message);
  }
  if (frame.type != FrameType::kStats) {
    throw ServeError("serve answered STATS with the wrong frame type");
  }
  return std::move(frame.stats);
}

ClientOutcome Client::run(
    const shard::SweepSpec& spec,
    const std::function<void(const sweep::Cell&)>& on_cell) {
  const std::uint64_t id = ++last_id_;
  send(submit_line(id, spec));

  const std::size_t n_techniques = spec.techniques.size();
  const std::size_t n_machines = spec.machines.size();
  const std::size_t total = spec.total_cells();

  ClientOutcome outcome;
  outcome.result.cells.resize(total);
  std::vector<char> placed(total, 0);

  bool done = false;
  while (!done) {
    Frame frame = read_response(id);
    switch (frame.type) {
      case FrameType::kError:
        throw ServeError("serve request rejected: " + frame.message);
      case FrameType::kStats:
        // Stats frames only answer STATS lines; one mid-run is a protocol
        // violation like any other unexpected frame.
        throw ServeError("serve streamed a stats frame into a SUBMIT");
      case FrameType::kDone:
        outcome.summary = std::move(frame.summary);
        done = true;
        break;
      case FrameType::kCell: {
        sweep::Cell& cell = frame.cell;
        if (cell.circuit_index >= spec.circuits.size() ||
            cell.technique_index >= n_techniques ||
            cell.machine_index >= n_machines) {
          throw ServeError("streamed cell indexes outside the request matrix");
        }
        const std::size_t flat =
            (cell.circuit_index * n_techniques + cell.technique_index) *
                n_machines +
            cell.machine_index;
        if (placed[flat] != 0) {
          throw ServeError("server streamed the same cell twice");
        }
        placed[flat] = 1;
        outcome.result.cells[flat] = std::move(cell);
        if (on_cell) on_cell(outcome.result.cells[flat]);
        break;
      }
    }
  }

  // Label the cells the server never streamed (a cancelled request) the
  // way sweep::run labels them, so the reassembled Result is shaped
  // identically either way.
  for (std::size_t flat = 0; flat < total; ++flat) {
    if (placed[flat] != 0) continue;
    sweep::Cell& cell = outcome.result.cells[flat];
    const std::size_t per_circuit = n_techniques * n_machines;
    cell.circuit_index = flat / per_circuit;
    cell.technique_index = (flat % per_circuit) / n_machines;
    cell.machine_index = flat % n_machines;
    cell.circuit = spec.circuits[cell.circuit_index].name;
    cell.technique = spec.techniques[cell.technique_index];
    cell.machine = spec.machines[cell.machine_index].name;
    cell.cancelled = outcome.summary.cancelled;
    cell.skipped = !outcome.summary.cancelled;
  }
  outcome.result.cancelled = outcome.summary.cancelled;
  outcome.result.result_cache_hits = outcome.summary.result_cache_hits;
  outcome.result.result_cache_misses = outcome.summary.result_cache_misses;
  outcome.result.placement_disk_hits = outcome.summary.placement_disk_hits;
  outcome.result.anneals = static_cast<std::size_t>(outcome.summary.anneals);
  outcome.result.wall_seconds = outcome.summary.wall_seconds;
  return outcome;
}

}  // namespace parallax::serve
