#include "serve/protocol.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

#include "cache/archive.hpp"
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
/// Where the header's payload size and checksum fields start.
constexpr std::size_t kSizeOffset = 24;
constexpr std::size_t kChecksumOffset = 32;

/// Builds a frame in one buffer: the header, then the payload `encode`
/// appends behind it, then the header's size and checksum slots patched.
/// `payload_hint` reserves room for a payload of known size up front.
template <typename Encode>
std::string frame(FrameType type, std::uint64_t request_id,
                  const Encode& encode, std::size_t payload_hint = 0) {
  Writer writer;
  writer.reserve(kFrameHeaderBytes + payload_hint);
  writer.u64(kMagic);
  writer.u32(kServeVersion);
  writer.u32(static_cast<std::uint32_t>(type));
  writer.u64(request_id);
  writer.u64(0);  // payload size
  writer.u64(0);  // payload checksum
  encode(writer);
  const std::size_t size = writer.bytes().size() - kFrameHeaderBytes;
  const std::uint64_t checksum =
      util::checksum64(writer.bytes().data() + kFrameHeaderBytes, size);
  writer.patch_u64(kSizeOffset, size);
  writer.patch_u64(kChecksumOffset, checksum);
  return writer.take();
}

template <typename Archive, cache::MaybeConst<Summary> O>
void fields(Archive& ar, O& summary) {
  ar.u64(summary.total_cells);
  ar.u64(summary.executed_cells);
  ar.u64(summary.failed_cells);
  ar.u64(summary.cancelled_cells);
  ar.u64(summary.result_cache_hits);
  ar.u64(summary.result_cache_misses);
  ar.u64(summary.placement_disk_hits);
  ar.u64(summary.anneals);
  ar.boolean(summary.cancelled);
  ar.f64(summary.wall_seconds);
  ar.str(summary.error);
}

/// One client row: six 8-byte fields and a bool.
constexpr std::size_t kClientRowBytes = 6 * 8 + 1;

template <typename Archive, cache::MaybeConst<ClientStats> O>
void fields(Archive& ar, O& client) {
  ar.u64(client.client_id);
  ar.u64(client.requests);
  ar.u64(client.cells_executed);
  ar.u64(client.anneals);
  ar.u64(client.bytes_queued);
  ar.f64(client.connected_seconds);
  ar.boolean(client.connected);
}

template <typename Archive, cache::MaybeConst<SessionStats> O>
void fields(Archive& ar, O& stats) {
  ar.u64(stats.requests);
  ar.u64(stats.cells_executed);
  ar.u64(stats.cells_failed);
  ar.u64(stats.result_cache_hits);
  ar.u64(stats.result_cache_misses);
  ar.u64(stats.placement_cache_hits);
  ar.u64(stats.placement_cache_misses);
  ar.u64(stats.anneals);
  ar.u64(stats.threads);
  ar.boolean(stats.cache_enabled);
  ar.f64(stats.uptime_seconds);
  ar.items(stats.clients, kClientRowBytes,
           [&](auto& client) { fields(ar, client); });
}

/// Every byte's two lowercase hex digits, in order.
constexpr std::array<char, 512> kHexPairs = [] {
  constexpr char kDigits[] = "0123456789abcdef";
  std::array<char, 512> table{};
  for (int b = 0; b < 256; ++b) {
    table[2 * b] = kDigits[b >> 4];
    table[2 * b + 1] = kDigits[b & 0xf];
  }
  return table;
}();

/// Writes the lowercase hex of `bytes` to `out`, two characters a byte.
void encode_hex(std::string_view bytes, char* out) {
  for (const char c : bytes) {
    std::memcpy(out, &kHexPairs[2 * static_cast<unsigned char>(c)], 2);
    out += 2;
  }
}

}  // namespace

std::string submit_line(std::uint64_t id, const shard::SweepSpec& spec) {
  const std::string bytes = shard::serialize_sweep_spec(spec);
  // One buffer for the whole line: the hex overwrites all but the last of
  // the newlines the resize appends.
  std::string line = "SUBMIT " + std::to_string(id) + ' ';
  const std::size_t prefix = line.size();
  line.resize(prefix + 2 * bytes.size() + 1, '\n');
  encode_hex(bytes, line.data() + prefix);
  return line;
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

/// Request-line bytes by class: a hex digit's value (0-15), kSpace for
/// the token separators " \t\r\v\f", kOther for any other byte.
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

std::uint8_t char_class(char c) {
  return kCharClass[static_cast<unsigned char>(c)];
}

/// Decodes the longest run of whole hex pairs at the front of `text` into
/// `out`; returns how many characters it consumed. Whole blocks of
/// kBlockPairs pairs decode with no exit branch, and a block that holds a
/// non-hex byte is decoded again pair by pair up to that byte.
std::size_t decode_hex_pairs(std::string_view text, std::string& out) {
  constexpr std::size_t kBlockPairs = 8;
  out.resize(text.size() / 2);
  const char* in = text.data();
  char* bytes = out.data();
  std::size_t n = 0;
  for (; n + kBlockPairs <= out.size(); n += kBlockPairs) {
    std::uint8_t classes = 0;
    for (std::size_t k = n; k < n + kBlockPairs; ++k) {
      const std::uint8_t hi = char_class(in[2 * k]);
      const std::uint8_t lo = char_class(in[2 * k + 1]);
      classes |= hi | lo;
      bytes[k] = static_cast<char>((hi << 4) | lo);
    }
    if (classes > 15) break;
  }
  for (; n < out.size(); ++n) {
    const std::uint8_t hi = char_class(in[2 * n]);
    const std::uint8_t lo = char_class(in[2 * n + 1]);
    if ((hi | lo) > 15) break;
    bytes[n] = static_cast<char>((hi << 4) | lo);
  }
  out.resize(n);
  return 2 * n;
}

/// Whitespace-delimited tokens over the request line, yielded as views into
/// the caller's buffer. A SUBMIT line is dominated by its spec hex — often
/// megabytes — so the parser never copies the line and reads each of its
/// characters once.
class LineTokenizer {
 public:
  explicit LineTokenizer(std::string_view line) : line_(line) {}

  /// The next token, or an empty view once the line is exhausted (empty
  /// tokens cannot otherwise occur).
  [[nodiscard]] std::string_view next() noexcept {
    const std::size_t begin = skip_space();
    while (pos_ < line_.size() && char_class(line_[pos_]) != kSpace) ++pos_;
    return line_.substr(begin, pos_ - begin);
  }

  /// next() for a token of hex pairs, decoded into `bytes` in the pass
  /// that finds the token's end. `is_hex` is false unless every character
  /// of the token decoded.
  [[nodiscard]] std::string_view next_hex(std::string& bytes, bool& is_hex) {
    const std::size_t begin = skip_space();
    pos_ += decode_hex_pairs(line_.substr(begin), bytes);
    const std::size_t decoded_end = pos_;
    while (pos_ < line_.size() && char_class(line_[pos_]) != kSpace) ++pos_;
    is_hex = pos_ == decoded_end;
    return line_.substr(begin, pos_ - begin);
  }

  [[nodiscard]] bool exhausted() noexcept { return next().empty(); }

 private:
  /// Steps over separators; returns where the next token starts.
  std::size_t skip_space() noexcept {
    while (pos_ < line_.size() && char_class(line_[pos_]) == kSpace) ++pos_;
    return pos_;
  }

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
  std::string bytes;
  bool is_hex = false;
  if (tokens.next_hex(bytes, is_hex).empty()) {
    throw ServeError("SUBMIT needs a hex-encoded sweep spec");
  }
  if (!tokens.exhausted()) {
    throw ServeError("SUBMIT takes exactly id and spec hex");
  }
  if (!is_hex) {
    throw ServeError("SUBMIT payload is not valid hex");
  }
  request.verb = RequestLine::Verb::kSubmit;
  request.spec = shard::parse_sweep_spec(bytes);
  return request;
}

std::string cell_frame(std::uint64_t request_id, const sweep::Cell& cell) {
  return frame(FrameType::kCell, request_id,
               [&](Writer& writer) { shard::encode_cell(writer, cell); });
}

std::string cell_frame(std::uint64_t request_id, const sweep::Cell& cell,
                       const cache::ScannedCell& cached) {
  // The cached bytes plus the cell's strings bound the payload, give or
  // take the fixed-width fields around them.
  const std::size_t hint = cached.payload->size() + cell.circuit.size() +
                           cell.technique.size() + cell.machine.size() +
                           cell.error.size() + cell.origin.size() + 128;
  return frame(
      FrameType::kCell, request_id,
      [&](Writer& writer) { shard::encode_cell(writer, cell, cached); }, hint);
}

std::string done_frame(std::uint64_t request_id, const Summary& summary) {
  return frame(FrameType::kDone, request_id, [&](Writer& writer) {
    cache::FieldWriter ar(writer);
    fields(ar, summary);
  });
}

std::string stats_frame(std::uint64_t request_id, const SessionStats& stats) {
  return frame(FrameType::kStats, request_id, [&](Writer& writer) {
    cache::FieldWriter ar(writer);
    fields(ar, stats);
  });
}

std::string error_frame(std::uint64_t request_id, std::string_view message) {
  return frame(FrameType::kError, request_id,
               [&](Writer& writer) { writer.str(message); });
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
  cache::FieldReader ar(reader);
  switch (header.type) {
    case FrameType::kCell:
      result.cell = shard::decode_cell(reader);
      break;
    case FrameType::kDone:
      fields(ar, result.summary);
      break;
    case FrameType::kStats:
      fields(ar, result.stats);
      break;
    case FrameType::kError:
      ar.str(result.message);
      break;
  }
  reader.expect_end();
  return result;
}

std::string hex_encode(std::string_view bytes) {
  std::string hex(2 * bytes.size(), '\0');
  encode_hex(bytes, hex.data());
  return hex;
}

std::optional<std::string> hex_decode(std::string_view hex) {
  if (hex.size() % 2 != 0) return std::nullopt;
  std::string bytes;
  if (decode_hex_pairs(hex, bytes) != hex.size()) return std::nullopt;
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


}  // namespace parallax::serve
