#include "serve/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

#include "cache/serialize.hpp"
#include "shard/shard.hpp"
#include "util/hash.hpp"
#include "util/parse.hpp"

namespace parallax::serve {

namespace {

using cache::Reader;
using cache::Writer;

constexpr std::uint64_t kMagic = 0x3145565245535850ULL;  // "PXSERVE1" LE
/// Frames larger than this are rejected before allocation — far beyond any
/// real cell or summary, small enough that a corrupt size field cannot ask
/// a client to buffer terabytes.
constexpr std::uint64_t kMaxPayloadBytes = 1ull << 33;

std::string frame(FrameType type, std::uint64_t request_id,
                  const std::string& payload) {
  Writer writer;
  writer.u64(kMagic);
  writer.u32(kServeVersion);
  writer.u32(static_cast<std::uint32_t>(type));
  writer.u64(request_id);
  writer.u64(payload.size());
  writer.u64(util::checksum64(payload.data(), payload.size()));
  return writer.take() + payload;
}

void encode_summary(Writer& writer, const Summary& summary) {
  writer.u64(summary.total_cells);
  writer.u64(summary.executed_cells);
  writer.u64(summary.failed_cells);
  writer.u64(summary.cancelled_cells);
  writer.u64(summary.result_cache_hits);
  writer.u64(summary.result_cache_misses);
  writer.u64(summary.placement_disk_hits);
  writer.u64(summary.anneals);
  writer.boolean(summary.cancelled);
  writer.f64(summary.wall_seconds);
  writer.str(summary.error);
}

Summary decode_summary(Reader& reader) {
  Summary summary;
  summary.total_cells = reader.u64();
  summary.executed_cells = reader.u64();
  summary.failed_cells = reader.u64();
  summary.cancelled_cells = reader.u64();
  summary.result_cache_hits = reader.u64();
  summary.result_cache_misses = reader.u64();
  summary.placement_disk_hits = reader.u64();
  summary.anneals = reader.u64();
  summary.cancelled = reader.boolean();
  summary.wall_seconds = reader.f64();
  summary.error = reader.str();
  return summary;
}

void encode_session_stats(Writer& writer, const SessionStats& stats) {
  writer.u64(stats.requests);
  writer.u64(stats.cells_executed);
  writer.u64(stats.cells_failed);
  writer.u64(stats.result_cache_hits);
  writer.u64(stats.result_cache_misses);
  writer.u64(stats.placement_cache_hits);
  writer.u64(stats.placement_cache_misses);
  writer.u64(stats.anneals);
  writer.u64(stats.threads);
  writer.boolean(stats.cache_enabled);
  writer.f64(stats.uptime_seconds);
  writer.u64(stats.clients.size());
  for (const ClientStats& client : stats.clients) {
    writer.u64(client.client_id);
    writer.u64(client.requests);
    writer.u64(client.cells_executed);
    writer.u64(client.anneals);
    writer.u64(client.bytes_queued);
    writer.f64(client.connected_seconds);
    writer.boolean(client.connected);
  }
}

SessionStats decode_session_stats(Reader& reader) {
  SessionStats stats;
  stats.requests = reader.u64();
  stats.cells_executed = reader.u64();
  stats.cells_failed = reader.u64();
  stats.result_cache_hits = reader.u64();
  stats.result_cache_misses = reader.u64();
  stats.placement_cache_hits = reader.u64();
  stats.placement_cache_misses = reader.u64();
  stats.anneals = reader.u64();
  stats.threads = reader.u64();
  stats.cache_enabled = reader.boolean();
  stats.uptime_seconds = reader.f64();
  // One row is six 8-byte fields and a bool.
  const std::size_t n_clients = reader.length(6 * 8 + 1);
  stats.clients.reserve(n_clients);
  for (std::size_t i = 0; i < n_clients; ++i) {
    ClientStats client;
    client.client_id = reader.u64();
    client.requests = reader.u64();
    client.cells_executed = reader.u64();
    client.anneals = reader.u64();
    client.bytes_queued = reader.u64();
    client.connected_seconds = reader.f64();
    client.connected = reader.boolean();
    stats.clients.push_back(client);
  }
  return stats;
}

}  // namespace

std::string submit_line(std::uint64_t id, const shard::SweepSpec& spec) {
  return "SUBMIT " + std::to_string(id) + ' ' +
         hex_encode(shard::serialize_sweep_spec(spec)) + '\n';
}

std::string cancel_line(std::uint64_t id) {
  return "CANCEL " + std::to_string(id) + '\n';
}

std::string stats_line(std::uint64_t id) {
  return "STATS " + std::to_string(id) + '\n';
}

std::string stop_line(std::uint64_t id) {
  return "STOP " + std::to_string(id) + '\n';
}

std::string quit_line() { return "QUIT\n"; }

namespace {

/// Whitespace-delimited tokens over the request line, yielded as views into
/// the caller's buffer. A SUBMIT line is dominated by its spec hex — often
/// megabytes — so the parser must never copy the line (the istringstream it
/// replaced duplicated the whole buffer before reading one verb).
class LineTokenizer {
 public:
  explicit LineTokenizer(std::string_view line) : line_(line) {}

  /// The next token, or an empty view once the line is exhausted (empty
  /// tokens cannot otherwise occur).
  [[nodiscard]] std::string_view next() noexcept {
    constexpr std::string_view kSpace = " \t\r\v\f";
    const std::size_t begin = line_.find_first_not_of(kSpace, pos_);
    if (begin == std::string_view::npos) {
      pos_ = line_.size();
      return {};
    }
    std::size_t end = line_.find_first_of(kSpace, begin);
    if (end == std::string_view::npos) end = line_.size();
    pos_ = end;
    return line_.substr(begin, end - begin);
  }

  [[nodiscard]] bool exhausted() noexcept { return next().empty(); }

 private:
  std::string_view line_;
  std::size_t pos_ = 0;
};

}  // namespace

RequestLine parse_request_line(std::string_view line) {
  LineTokenizer tokens(line);
  const std::string_view verb = tokens.next();
  if (verb.empty()) throw ServeError("empty request line");
  RequestLine request;
  if (verb == "QUIT") {
    if (!tokens.exhausted()) throw ServeError("QUIT takes no arguments");
    request.verb = RequestLine::Verb::kQuit;
    return request;
  }
  const bool is_submit = verb == "SUBMIT";
  if (!is_submit && verb != "CANCEL" && verb != "STATS" && verb != "STOP") {
    throw ServeError("unknown request verb '" + std::string(verb) +
                     "' (use SUBMIT, CANCEL, STATS, STOP, QUIT)");
  }
  const std::string_view id_token = tokens.next();
  if (id_token.empty()) {
    throw ServeError(std::string(verb) + " needs a request id");
  }
  const auto id = util::parse_u64(id_token);
  if (!id) {
    throw ServeError(std::string(verb) + " request id '" +
                     std::string(id_token) +
                     "' is not a non-negative integer");
  }
  request.id = *id;
  if (!is_submit) {
    if (!tokens.exhausted()) {
      throw ServeError(std::string(verb) + " takes only a request id");
    }
    request.verb = verb == "CANCEL"  ? RequestLine::Verb::kCancel
                   : verb == "STATS" ? RequestLine::Verb::kStats
                                     : RequestLine::Verb::kStop;
    return request;
  }
  const std::string_view payload_token = tokens.next();
  if (payload_token.empty()) {
    throw ServeError("SUBMIT needs a hex-encoded sweep spec");
  }
  if (!tokens.exhausted()) {
    throw ServeError("SUBMIT takes exactly id and spec hex");
  }
  const auto bytes = hex_decode(payload_token);
  if (!bytes) {
    throw ServeError("SUBMIT payload is not valid hex");
  }
  request.verb = RequestLine::Verb::kSubmit;
  request.spec = shard::parse_sweep_spec(*bytes);
  return request;
}

std::string cell_frame(std::uint64_t request_id, const sweep::Cell& cell) {
  Writer writer;
  shard::encode_cell(writer, cell);
  return frame(FrameType::kCell, request_id, writer.take());
}

std::string done_frame(std::uint64_t request_id, const Summary& summary) {
  Writer writer;
  encode_summary(writer, summary);
  return frame(FrameType::kDone, request_id, writer.take());
}

std::string stats_frame(std::uint64_t request_id, const SessionStats& stats) {
  Writer writer;
  encode_session_stats(writer, stats);
  return frame(FrameType::kStats, request_id, writer.take());
}

std::string error_frame(std::uint64_t request_id, std::string_view message) {
  Writer writer;
  writer.str(message);
  return frame(FrameType::kError, request_id, writer.take());
}

FrameHeader parse_frame_header(std::string_view bytes) {
  if (bytes.size() != kFrameHeaderBytes) {
    throw ServeError("serve frame header has the wrong size");
  }
  Reader reader(bytes);
  if (reader.u64() != kMagic) throw ServeError("not a parallax serve frame");
  if (reader.u32() != kServeVersion) {
    throw ServeError("serve frame from an incompatible version");
  }
  const std::uint32_t type = reader.u32();
  if (type != static_cast<std::uint32_t>(FrameType::kCell) &&
      type != static_cast<std::uint32_t>(FrameType::kDone) &&
      type != static_cast<std::uint32_t>(FrameType::kStats) &&
      type != static_cast<std::uint32_t>(FrameType::kError)) {
    throw ServeError("serve frame has an unknown type");
  }
  FrameHeader header;
  header.type = static_cast<FrameType>(type);
  header.request_id = reader.u64();
  header.payload_size = reader.u64();
  header.checksum = reader.u64();
  if (header.payload_size > kMaxPayloadBytes) {
    throw ServeError("serve frame declares an implausibly large payload");
  }
  return header;
}

Frame decode_frame(const FrameHeader& header, std::string_view payload) {
  if (payload.size() != header.payload_size) {
    throw ServeError("serve frame payload size mismatch");
  }
  if (util::checksum64(payload.data(), payload.size()) != header.checksum) {
    throw ServeError("serve frame payload checksum mismatch");
  }
  Frame result;
  result.type = header.type;
  result.request_id = header.request_id;
  Reader reader(payload);
  switch (header.type) {
    case FrameType::kCell:
      result.cell = shard::decode_cell(reader);
      break;
    case FrameType::kDone:
      result.summary = decode_summary(reader);
      break;
    case FrameType::kStats:
      result.stats = decode_session_stats(reader);
      break;
    case FrameType::kError:
      result.message = reader.str();
      break;
  }
  reader.expect_end();
  return result;
}

std::string hex_encode(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string hex;
  hex.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    hex.push_back(kDigits[b >> 4]);
    hex.push_back(kDigits[b & 0xf]);
  }
  return hex;
}

namespace {

int hex_nibble(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::optional<std::string> hex_decode(std::string_view hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  std::string bytes;
  bytes.reserve(hex.size() / 2);
  for (std::size_t i = 0; i < hex.size(); i += 2) {
    const int hi = hex_nibble(hex[i]);
    const int lo = hex_nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) return std::nullopt;
    bytes.push_back(static_cast<char>((hi << 4) | lo));
  }
  return bytes;
}

bool write_all(int fd, std::string_view bytes) {
  std::size_t offset = 0;
  while (offset < bytes.size()) {
    ssize_t n = ::send(fd, bytes.data() + offset, bytes.size() - offset,
                       MSG_NOSIGNAL);
    if (n < 0 && errno == ENOTSOCK) {
      n = ::write(fd, bytes.data() + offset, bytes.size() - offset);
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    offset += static_cast<std::size_t>(n);
  }
  return true;
}

bool read_exact(int fd, std::string& out, std::size_t n) {
  const std::size_t start = out.size();
  out.resize(start + n);
  std::size_t offset = 0;
  while (offset < n) {
    const ssize_t got = ::read(fd, out.data() + start + offset, n - offset);
    if (got < 0) {
      if (errno == EINTR) continue;
      out.resize(start);
      return false;
    }
    if (got == 0) {
      out.resize(start);
      return false;
    }
    offset += static_cast<std::size_t>(got);
  }
  return true;
}

}  // namespace parallax::serve
