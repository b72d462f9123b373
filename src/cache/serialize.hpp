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
//   - Reader makes one bounds check per field, or per record of fixed-width
//     fields (take), and loads it through a local pointer. It never reads
//     out of bounds and never allocates more than the input could back:
//     length() caps a container count by the bytes left, and a decoder
//     reserves only counts it read through length(). Any malformed input
//     throws ReadError, which the store layer converts into a cache miss.
//
// Field lists. Each payload struct has one `fields(ar, x)` list below, in
// wire order (shard.cpp and serve/protocol.cpp hold the lists of cells,
// shard runs and serve frames). Three archives (cache/archive.hpp) walk
// them: FieldWriter encodes, FieldReader decodes with every check, and
// FieldScanner makes the reader's checks and builds nothing (scan_cell).
// To add a payload field, add it to its struct's list; the writer, the
// reader and the scanner all pick it up. A layout change bumps the version
// of every container that carries the bytes: kPayloadVersion (store.hpp)
// for cache entries, shard::kSpecVersion for spec and shard-run files, and
// serve::kServeVersion for frames. Payload strings use `str`, never
// `label`, which cache keys skip.
//
// Deliberately not serialized: CompileResult::pass_timings. Timings are
// wall-clock observations, not results — they differ between the run that
// wrote an entry and the run that reads it, and excluding them keeps the
// byte-identity guarantee meaningful.
#pragma once

#include <bit>
#include <concepts>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
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
  /// A str field, as a view into the buffer.
  [[nodiscard]] std::string_view str_view();
  [[nodiscard]] std::string str() { return std::string(str_view()); }

  /// Reads a container length and checks that `count * min_element_bytes`
  /// (overflow-checked) still fits in the remaining buffer, so corrupt
  /// lengths fail fast instead of triggering gigabyte allocations.
  [[nodiscard]] std::size_t length(std::size_t min_element_bytes) {
    const std::uint64_t count = u64();
    std::uint64_t bytes = 0;
    if (__builtin_mul_overflow(count, min_element_bytes, &bytes) ||
        bytes > remaining()) {
      overruns();
    }
    return static_cast<std::size_t>(count);
  }

  /// Steps over `n` bytes and returns where they start, for a caller that
  /// loads fixed-width fields from them (a record, a copied run) or only
  /// checks their size (a scanned run).
  [[nodiscard]] const unsigned char* take(std::size_t n) {
    if (n > remaining()) truncated();
    const auto* at =
        reinterpret_cast<const unsigned char*>(data_.data()) + pos_;
    pos_ += n;
    return at;
  }

  /// The little-endian Unsigned stored at `field`.
  template <typename Unsigned>
  [[nodiscard]] static Unsigned load_le(const unsigned char* field) noexcept {
    Unsigned v = 0;
    for (std::size_t i = 0; i < sizeof(Unsigned); ++i) {
      v = static_cast<Unsigned>(v |
                                (static_cast<Unsigned>(field[i]) << (8 * i)));
    }
    return v;
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
    return load_le<Unsigned>(take(sizeof(Unsigned)));
  }
  [[noreturn]] static void truncated();
  [[noreturn]] static void overruns();

  std::string_view data_;
  std::size_t pos_ = 0;
};

// --- payload field lists ------------------------------------------------------

/// `O` is `T` (read into or scanned) or `const T` (written or hashed).
template <typename O, typename T>
concept MaybeConst = std::same_as<std::remove_const_t<O>, T>;

/// A whole cached compile: the result plus the sweep-level derived outputs
/// that ride with it in a sweep cell.
struct CachedCell {
  compiler::CompileResult result;
  bool has_success_probability = false;
  double success_probability = 0.0;
  bool has_shot_plans = false;
  std::vector<shots::ParallelPlan> shot_plans;
};

/// The parts of a cell payload warm serving copies into a kCell frame as
/// they are; the scanner records where each lies.
enum class Section : std::uint8_t { kResult, kShotPlans };

// The element sizes container counts are checked against (Reader::length):
// a fixed-width element's width, or a variable one's minimum.
inline constexpr std::size_t kPointBytes = 16;
inline constexpr std::size_t kSiteBytes = 8;
inline constexpr std::size_t kGateBytes = 33;  // type, two qubits, 3 angles
/// A layer's five scalars: two distances, two counts, a duration.
inline constexpr std::size_t kLayerScalarBytes = 32;
/// An empty layer: its gate count, its scalars and its position count.
inline constexpr std::size_t kLayerMinBytes = 8 + kLayerScalarBytes + 8;
inline constexpr std::size_t kShotPlanBytes = 24;

template <typename Archive, MaybeConst<geom::Point> O>
void fields(Archive& ar, O& point) {
  ar.f64(point.x);
  ar.f64(point.y);
}

template <typename Archive, MaybeConst<placement::Topology> O>
void fields(Archive& ar, O& topology) {
  ar.run(topology.positions, kPointBytes, [&](auto& p) { fields(ar, p); });
  ar.f64(topology.interaction_radius);
}

template <typename Archive, MaybeConst<placement::PhysicalTopology> O>
void fields(Archive& ar, O& topology) {
  // geom::Grid has no setters and only asserts a positive side and pitch,
  // so the two fields pass through locals and the check.
  std::int32_t side = topology.grid.side();
  double pitch = topology.grid.pitch();
  ar.i32(side);
  ar.f64(pitch);
  ar.expect(side >= 1 && pitch > 0.0, "a malformed grid");
  if constexpr (!std::is_const_v<O>) topology.grid = geom::Grid(side, pitch);
  ar.run(topology.sites, kSiteBytes, [&](auto& site) {
    ar.i32(site.col);
    ar.i32(site.row);
  });
  ar.f64(topology.interaction_radius_um);
  ar.f64(topology.blockade_radius_um);
}

/// One gate of a circuit on `n_qubits` qubits, checked the way
/// Circuit::append checks it (its exceptions are not ReadErrors).
template <typename Archive, MaybeConst<circuit::Gate> O>
void fields(Archive& ar, O& gate, std::int32_t n_qubits) {
  ar.record(kGateBytes, [&](auto& r) {
    r.enum_u8(gate.type);
    r.i32(gate.q[0]);
    r.i32(gate.q[1]);
    r.f64(gate.theta);
    r.f64(gate.phi);
    r.f64(gate.lambda);
  });
  for (int q = 0; q < gate.arity(); ++q) {
    ar.expect(gate.q[q] >= 0 && gate.q[q] < n_qubits,
              "a gate on an out-of-range qubit");
  }
  ar.expect(gate.arity() != 2 || gate.q[0] != gate.q[1],
            "a two-qubit gate on one qubit");
}

/// Circuit keeps its members private; as its friend, this list reads them
/// in place.
struct CircuitFields {
  template <typename Archive, MaybeConst<circuit::Circuit> O>
  static void visit(Archive& ar, O& circuit) {
    ar.i32(circuit.n_qubits_);
    ar.str(circuit.name_);
    ar.expect(circuit.n_qubits_ >= 0, "a malformed circuit");
    ar.items(circuit.gates_, kGateBytes,
             [&](auto& gate) { fields(ar, gate, circuit.n_qubits_); });
  }
};

template <typename Archive, MaybeConst<circuit::Circuit> O>
void fields(Archive& ar, O& circuit) {
  CircuitFields::visit(ar, circuit);
}

/// One layer of a result whose gate array is `layer_gates`. Its gates go on
/// the wire as a run of their own: a count, then the indices.
template <typename Archive, MaybeConst<compiler::Layer> O,
          MaybeConst<std::vector<std::size_t>> G>
void fields(Archive& ar, O& layer, G& layer_gates) {
  ar.slice(layer_gates, layer.gates_begin, layer.gates_end, 8,
           [&](auto& gate) { ar.u64(gate); });
  ar.record(kLayerScalarBytes, [&](auto& r) {
    r.f64(layer.move_distance_um);
    r.f64(layer.return_distance_um);
    r.i32(layer.aod_moves);
    r.i32(layer.trap_changes);
    r.f64(layer.duration_us);
  });
  ar.run(layer.positions, kPointBytes, [&](auto& p) { fields(ar, p); });
}

template <typename Archive, MaybeConst<compiler::CompileStats> O>
void fields(Archive& ar, O& stats) {
  ar.u64(stats.u3_gates);
  ar.u64(stats.cz_gates);
  ar.u64(stats.swap_gates);
  ar.u64(stats.layers);
  ar.u64(stats.aod_moves);
  ar.u64(stats.trap_changes);
  ar.u64(stats.out_of_range_cz);
  ar.u64(stats.slm_slm_cz);
  ar.f64(stats.max_move_distance_um);
  ar.f64(stats.total_move_distance_um);
}

template <typename Archive, MaybeConst<compiler::CompileResult> O>
void fields(Archive& ar, O& result) {
  ar.str(result.technique);
  fields(ar, result.circuit);
  fields(ar, result.topology);
  // A valid schedule lists every gate of the circuit at most once, so one
  // reserve sizes the decoder's gate array; a longer array still appends.
  if constexpr (!std::is_const_v<O>) {
    result.layer_gates.reserve(result.circuit.size());
  }
  ar.items(result.layers, kLayerMinBytes,
           [&](auto& layer) { fields(ar, layer, result.layer_gates); });
  ar.run(result.in_aod, 1, [&](auto& flag) { ar.i8(flag); });
  fields(ar, result.stats);
  ar.f64(result.runtime_us);
  // pass_timings are never encoded: see the header contract.
}

template <typename Archive, MaybeConst<shots::ParallelPlan> O>
void fields(Archive& ar, O& plan) {
  ar.i32(plan.copies_per_dim);
  ar.i32(plan.copies);
  ar.i64(plan.physical_shots);
  ar.f64(plan.total_execution_time_us);
}

/// A cell's Fig. 11 shot plans (the cache payload and the shard cell codec
/// share this layout).
template <typename Archive, MaybeConst<std::vector<shots::ParallelPlan>> O>
void fields(Archive& ar, O& plans) {
  ar.run(plans, kShotPlanBytes, [&](auto& plan) { fields(ar, plan); });
}

template <typename Archive, MaybeConst<CachedCell> O>
void fields(Archive& ar, O& cell) {
  ar.section(Section::kResult, [&] { fields(ar, cell.result); });
  ar.boolean(cell.has_success_probability);
  ar.f64(cell.success_probability);
  ar.boolean(cell.has_shot_plans);
  ar.section(Section::kShotPlans, [&] { fields(ar, cell.shot_plans); });
}

// --- artifact codecs ----------------------------------------------------------

void encode(Writer& writer, const circuit::Circuit& circuit);
void encode(Writer& writer, const CachedCell& cell);
[[nodiscard]] CachedCell decode_cell(Reader& reader);

/// A cell payload that scan_cell accepted, kept as bytes: where its
/// sections lie, so a serve frame can copy them in without decoding (the
/// warm-serve splice, serve::cell_frame). The payload is the cache's
/// immutable buffer (Store::get lends it), shared, never copied.
struct ScannedCell {
  std::shared_ptr<const std::string> payload;
  /// payload[0, result_end) is the encoded CompileResult.
  std::size_t result_end = 0;
  double success_probability = 0.0;
  /// payload[shot_plans_begin, end) is the encoded shot plans.
  std::size_t shot_plans_begin = 0;

  [[nodiscard]] std::string_view result() const noexcept {
    return std::string_view(*payload).substr(0, result_end);
  }
  [[nodiscard]] std::string_view shot_plans() const noexcept {
    return std::string_view(*payload).substr(shot_plans_begin);
  }
};

/// Walks a cell payload's field list with the checking archive, so it
/// throws ReadError exactly when parse_cell does, and builds nothing. The
/// payload must not be null; the scanned cell keeps it.
[[nodiscard]] ScannedCell scan_cell(
    std::shared_ptr<const std::string> payload);

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
