#include "serve/client.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <string_view>
#include <utility>

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
  frames_ = FrameReader(fd_);
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::send(const std::string& line) {
  if (!write_all(fd_, line)) {
    throw ServeError("cannot write to the serve connection");
  }
}

Frame FrameReader::next() {
  while (end_ - begin_ < kFrameHeaderBytes) {
    if (!fill(kFrameHeaderBytes)) {
      throw ServeError("serve connection closed mid-response");
    }
  }
  const FrameHeader header = parse_frame_header(
      std::string_view(buffer_).substr(begin_, kFrameHeaderBytes));
  // parse_frame_header caps payload_size far below SIZE_MAX.
  const std::size_t size =
      kFrameHeaderBytes + static_cast<std::size_t>(header.payload_size);
  while (end_ - begin_ < size) {
    if (!fill(size)) throw ServeError("serve connection closed mid-frame");
  }
  const std::size_t frame_begin = begin_;
  begin_ += size;
  if (begin_ == end_) begin_ = end_ = 0;
  return decode_frame(header, std::string_view(buffer_).substr(
                                  frame_begin + kFrameHeaderBytes,
                                  size - kFrameHeaderBytes));
}

bool FrameReader::fill(std::size_t need) {
  // `need` may come from a peer's frame header, so the buffer grows with
  // the bytes that arrive, never by the declared count alone: to at most
  // twice what it holds, and to at least kMinBytes.
  constexpr std::size_t kMinBytes = std::size_t{1} << 20;
  if (buffer_.size() - begin_ < need) {
    // Too little room past the frame's start: move its bytes to the front,
    // then grow if that is still too little.
    std::memmove(buffer_.data(), buffer_.data() + begin_, end_ - begin_);
    end_ -= begin_;
    begin_ = 0;
    if (buffer_.size() < need) {
      buffer_.resize(
          std::max({buffer_.size(), kMinBytes, std::min(need, 2 * end_)}));
    }
  }
  for (;;) {
    const ssize_t got =
        ::read(fd_, buffer_.data() + end_, buffer_.size() - end_);
    if (got < 0 && errno == EINTR) continue;
    if (got <= 0) return false;
    end_ += static_cast<std::size_t>(got);
    return true;
  }
}

Frame Client::read_response(std::uint64_t id) {
  Frame frame = frames_.next();
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

Reassembly::Reassembly(const shard::SweepSpec& spec)
    : spec_(spec),
      matrix_{spec.circuits.size(), spec.techniques.size(),
              spec.machines.size()},
      placed_(matrix_.cells(), 0) {
  result_.cells.resize(matrix_.cells());
}

const sweep::Cell& Reassembly::place(sweep::Cell&& cell) {
  if (!matrix_.contains(cell)) {
    throw ServeError("streamed cell indexes outside the request matrix");
  }
  const std::size_t flat = matrix_.flat_index(cell);
  if (placed_[flat] != 0) {
    throw ServeError("server streamed the same cell twice");
  }
  placed_[flat] = 1;
  return result_.cells[flat] = std::move(cell);
}

sweep::Result Reassembly::finish(const Summary& summary) && {
  for (std::size_t flat = 0; flat < placed_.size(); ++flat) {
    if (placed_[flat] != 0) continue;
    sweep::Cell& cell = result_.cells[flat];
    const auto [ci, ti, mi] = matrix_.index(flat);
    cell.circuit_index = ci;
    cell.technique_index = ti;
    cell.machine_index = mi;
    cell.circuit = spec_.circuits[ci].name;
    cell.technique = spec_.techniques[ti];
    cell.machine = spec_.machines[mi].name;
    cell.cancelled = summary.cancelled;
    cell.skipped = !summary.cancelled;
  }
  result_.cancelled = summary.cancelled;
  result_.result_cache_hits = summary.result_cache_hits;
  result_.result_cache_misses = summary.result_cache_misses;
  result_.placement_disk_hits = summary.placement_disk_hits;
  result_.anneals = static_cast<std::size_t>(summary.anneals);
  result_.wall_seconds = summary.wall_seconds;
  return std::move(result_);
}

ClientOutcome Client::run(
    const shard::SweepSpec& spec,
    const std::function<void(const sweep::Cell&)>& on_cell) {
  const std::uint64_t id = ++last_id_;
  send(submit_line(id, spec));

  Reassembly reassembly(spec);
  ClientOutcome outcome;
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
        const sweep::Cell& cell = reassembly.place(std::move(frame.cell));
        if (on_cell) on_cell(cell);
        break;
      }
    }
  }
  outcome.result = std::move(reassembly).finish(outcome.summary);
  return outcome;
}

}  // namespace parallax::serve
