// Versioned binary serialization for cacheable compilation artifacts:
// placement::Topology (the annealed Step-1 output) and full
// compiler::CompileResult payloads (scheduled layers, stats, shot plans,
// success probability). The encoding is fixed-width little-endian with
// length-prefixed containers, so a round trip is bit-exact — including every
// double — which is what lets a warm sweep return byte-identical results.
//
// Writer/Reader contract. Every byte path in the repo (cache payloads and
// entry headers, fingerprints, shard cells and run files, sweep specs, serve
// frames) goes through these two classes, so they move whole fields:
//   - a field is a fixed-width little-endian u8/u32/u64 (i32/i64/f64/bool
//     are bit casts of those) or a u64 length followed by raw bytes (str);
//   - Writer assembles each field locally and appends it in one call: one
//     capacity check per field, and growth never zero-fills slack capacity;
//   - Reader makes one bounds check per field and loads it through a local
//     pointer. It never reads out of bounds and never allocates more than
//     the input could back: length() caps a container count by the bytes
//     left, and a decoder reserves only counts it read through length().
//     Any malformed input throws ReadError, which the store layer converts
//     into a cache miss.
// Payload versioning lives in the store's entry header (store.hpp); bumping
// kPayloadVersion there retires old entries silently.
//
// Deliberately not serialized: CompileResult::pass_timings. Timings are
// wall-clock observations, not results — they differ between the run that
// wrote an entry and the run that reads it, and excluding them keeps the
// byte-identity guarantee meaningful.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "parallax/result.hpp"
#include "placement/discretize.hpp"
#include "placement/graphine.hpp"
#include "shots/parallelize.hpp"

namespace parallax::cache {

/// Thrown by Reader on truncated, corrupt, or over-long input. The store
/// catches it and reports a miss; it never escapes to cache users.
class ReadError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Appends canonical little-endian bytes, one whole field per append.
class Writer {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(static_cast<char>(v)); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i32(std::int32_t v) { put(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) { put(static_cast<std::uint64_t>(v)); }
  void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }
  void boolean(bool v) { u8(v ? 1 : 0); }
  void str(std::string_view s) {
    u64(s.size());
    bytes_.append(s.data(), s.size());
  }
  /// Appends fields this codec already encoded (a section of a scanned
  /// payload, see scan_cell) as they are: no length prefix.
  void raw(std::string_view bytes) {
    bytes_.append(bytes.data(), bytes.size());
  }
  /// Overwrites the u64 written at byte `offset`: a size or checksum slot
  /// whose value is known only once the fields after it are written.
  void patch_u64(std::size_t offset, std::uint64_t v) {
    char field[sizeof(v)];
    store(field, v);
    bytes_.replace(offset, sizeof(v), field, sizeof(v));
  }
  void reserve(std::size_t bytes) { bytes_.reserve(bytes); }

  [[nodiscard]] const std::string& bytes() const noexcept { return bytes_; }
  [[nodiscard]] std::string take() noexcept { return std::move(bytes_); }

 private:
  template <typename Unsigned>
  static void store(char* field, Unsigned v) {
    for (std::size_t i = 0; i < sizeof(Unsigned); ++i) {
      field[i] = static_cast<char>(v >> (8 * i));
    }
  }
  template <typename Unsigned>
  void put(Unsigned v) {
    char field[sizeof(Unsigned)];
    store(field, v);
    bytes_.append(field, sizeof(Unsigned));
  }

  std::string bytes_;
};

/// Bounds-checked reader over a byte buffer (does not own it).
class Reader {
 public:
  explicit Reader(std::string_view data) noexcept : data_(data) {}

  [[nodiscard]] std::uint8_t u8() { return load<std::uint8_t>(); }
  [[nodiscard]] std::uint32_t u32() { return load<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t u64() { return load<std::uint64_t>(); }
  [[nodiscard]] std::int32_t i32() { return static_cast<std::int32_t>(u32()); }
  [[nodiscard]] std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  [[nodiscard]] double f64() { return std::bit_cast<double>(u64()); }
  [[nodiscard]] bool boolean() {
    const std::uint8_t v = u8();
    if (v > 1) throw ReadError("cache payload has a malformed bool");
    return v != 0;
  }
  [[nodiscard]] std::string str();

  /// Reads a container length and validates that `count * min_element_bytes`
  /// still fits in the remaining buffer, so corrupt lengths fail fast
  /// instead of triggering gigabyte allocations.
  [[nodiscard]] std::size_t length(std::size_t min_element_bytes);

  /// Steps over `n` bytes: a field or section scan_cell checks the size
  /// of but does not decode.
  void skip(std::uint64_t n) {
    if (n > remaining()) truncated();
    pos_ += static_cast<std::size_t>(n);
  }

  [[nodiscard]] std::size_t position() const noexcept { return pos_; }
  [[nodiscard]] std::size_t remaining() const noexcept {
    return data_.size() - pos_;
  }
  /// Throws ReadError unless the buffer was consumed exactly.
  void expect_end() const;

 private:
  template <typename Unsigned>
  Unsigned load() {
    if (remaining() < sizeof(Unsigned)) truncated();
    const auto* field =
        reinterpret_cast<const unsigned char*>(data_.data()) + pos_;
    Unsigned v = 0;
    for (std::size_t i = 0; i < sizeof(Unsigned); ++i) {
      v = static_cast<Unsigned>(v |
                                (static_cast<Unsigned>(field[i]) << (8 * i)));
    }
    pos_ += sizeof(Unsigned);
    return v;
  }
  [[noreturn]] static void truncated();

  std::string_view data_;
  std::size_t pos_ = 0;
};

// --- artifact codecs ----------------------------------------------------------

/// A whole cached compile: the result plus the sweep-level derived outputs
/// that ride with it in a sweep cell.
struct CachedCell {
  compiler::CompileResult result;
  bool has_success_probability = false;
  double success_probability = 0.0;
  bool has_shot_plans = false;
  std::vector<shots::ParallelPlan> shot_plans;
};

void encode(Writer& writer, const placement::Topology& topology);
[[nodiscard]] placement::Topology decode_topology(Reader& reader);

void encode(Writer& writer, const placement::PhysicalTopology& topology);
[[nodiscard]] placement::PhysicalTopology decode_physical_topology(
    Reader& reader);

void encode(Writer& writer, const circuit::Circuit& circuit);
[[nodiscard]] circuit::Circuit decode_circuit(Reader& reader);

void encode(Writer& writer, const compiler::CompileResult& result);
[[nodiscard]] compiler::CompileResult decode_result(Reader& reader);

/// A cell's Fig. 11 shot plans (the cache payload and the shard cell codec
/// share this layout).
void encode(Writer& writer, const std::vector<shots::ParallelPlan>& plans);
[[nodiscard]] std::vector<shots::ParallelPlan> decode_shot_plans(
    Reader& reader);

void encode(Writer& writer, const CachedCell& cell);
[[nodiscard]] CachedCell decode_cell(Reader& reader);

/// A cell payload that scan_cell accepted, kept as bytes: where its
/// sections lie, so a serve frame can copy them in without decoding (the
/// warm-serve splice, serve::cell_frame).
struct ScannedCell {
  std::string payload;
  /// payload[0, result_end) is the encoded CompileResult.
  std::size_t result_end = 0;
  double success_probability = 0.0;
  /// payload[shot_plans_begin, end) is the encoded shot plans.
  std::size_t shot_plans_begin = 0;

  [[nodiscard]] std::string_view result() const noexcept {
    return std::string_view(payload).substr(0, result_end);
  }
  [[nodiscard]] std::string_view shot_plans() const noexcept {
    return std::string_view(payload).substr(shot_plans_begin);
  }
};

/// Walks a cell payload making every check parse_cell makes (container
/// length minimums, gate types and qubits, grid side and pitch, bools,
/// trailing bytes) and builds nothing, so it throws ReadError exactly when
/// parse_cell does. A change to the cell or result codec changes this scan
/// in the same commit; the serve suite's differential fuzz catches drift.
[[nodiscard]] ScannedCell scan_cell(std::string payload);

// One-shot conveniences (serialize_* returns the payload bytes; parse_*
// validates that the buffer holds exactly one artifact).
[[nodiscard]] std::string serialize_topology(
    const placement::Topology& topology);
[[nodiscard]] placement::Topology parse_topology(std::string_view bytes);
[[nodiscard]] std::string serialize_result(
    const compiler::CompileResult& result);
[[nodiscard]] compiler::CompileResult parse_result(std::string_view bytes);
[[nodiscard]] std::string serialize_cell(const CachedCell& cell);
[[nodiscard]] CachedCell parse_cell(std::string_view bytes);

}  // namespace parallax::cache
