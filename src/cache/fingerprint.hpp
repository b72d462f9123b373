// Stable fingerprints for the persistent compilation cache: every cacheable
// input (circuits, hardware configs, pass options) is canonically
// byte-serialized — fixed-width little-endian fields, length-prefixed
// strings, doubles as IEEE-754 bit patterns — and fed through the 128-bit
// hash in util/hash.hpp. Equal inputs produce equal digests in every run and
// process, which is what makes the on-disk cache content-addressed; any
// field that can change a compile result is included, and nothing else
// (labels like HardwareConfig::name are deliberately excluded).
//
// The option structs (hardware config, per-pass options, noise and shot
// options) are hashed through their field lists in option_fields.hpp, the
// same lists the sweep-spec codec writes and reads; a field lives in one
// list, and a group legacy keys never saw is fed only when non-default.
//
// kFingerprintSchema seeds every digest, so widening a fingerprint (adding a
// field) or changing the serialization bumps one constant and all stale
// entries become silent misses instead of wrong hits.
#pragma once

#include <cstdint>
#include <istream>
#include <streambuf>
#include <string>
#include <string_view>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/transpile.hpp"
#include "hardware/config.hpp"
#include "noise/model.hpp"
#include "parallax/aod_selection.hpp"
#include "parallax/scheduler.hpp"
#include "pipeline/pipeline.hpp"
#include "placement/discretize.hpp"
#include "placement/graphine.hpp"
#include "shots/parallelize.hpp"
#include "util/hash.hpp"

namespace parallax::cache {

using util::Digest128;

/// Bump when any fingerprint gains/loses a field or changes encoding; old
/// cache entries then miss by key instead of decoding garbage.
inline constexpr std::uint64_t kFingerprintSchema = 1;

/// Canonical byte feeder: typed values in, hash state forward. All integer
/// widths are fixed and little-endian; strings are length-prefixed so
/// ("ab","c") never collides with ("a","bc").
class Fingerprinter {
 public:
  Fingerprinter() noexcept : hash_(kFingerprintSchema) {}

  void u8(std::uint8_t v) noexcept { hash_.update(&v, 1); }
  void u32(std::uint32_t v) noexcept;
  void u64(std::uint64_t v) noexcept;
  void i32(std::int32_t v) noexcept { u32(static_cast<std::uint32_t>(v)); }
  void i64(std::int64_t v) noexcept { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) noexcept;
  void boolean(bool v) noexcept { u8(v ? 1 : 0); }
  void str(std::string_view s) noexcept;
  void digest(const Digest128& d) noexcept;

  [[nodiscard]] Digest128 finish() const noexcept { return hash_.digest(); }

 private:
  util::Hash128 hash_;
};

// --- streaming content fingerprints -------------------------------------------

/// Streambuf decorator that hashes every byte pulled through it. Wrapping a
/// file's streambuf and handing the wrapper to qasm::StreamParser
/// fingerprints the raw file content in the same single pass that parses it
/// — no second read, O(1) extra memory. The digest is chunking-independent
/// and equals fingerprint_stream() over the same bytes, but only once the
/// stream has been fully drained.
class HashingStreamBuf final : public std::streambuf {
 public:
  explicit HashingStreamBuf(std::streambuf* source);

  /// Digest of the bytes consumed so far (domain-tagged file content).
  [[nodiscard]] Digest128 content_digest() const noexcept;
  /// Total bytes pulled through this buffer so far.
  [[nodiscard]] std::uint64_t bytes_hashed() const noexcept { return n_; }

 protected:
  int_type underflow() override;
  int_type uflow() override;
  std::streamsize xsgetn(char_type* s, std::streamsize n) override;

 private:
  std::streambuf* source_;
  util::Hash128 hash_;
  std::uint64_t n_ = 0;
  char_type pending_ = 0;      // the character exposed by underflow()
  bool have_pending_ = false;  // pending_ read from source but not consumed
};

/// One-shot content digest of everything remaining in `in`. Equal bytes give
/// equal digests across runs and platforms; the digest domain is disjoint
/// from every structured fingerprint below, so a file's raw bytes can never
/// collide with, say, a circuit fingerprint.
[[nodiscard]] Digest128 fingerprint_stream(std::istream& in);

// --- component fingerprints ---------------------------------------------------

/// Gates, qubit count, and name (seeds derive from the name, so two
/// identical gate lists with different names compile differently).
[[nodiscard]] Digest128 fingerprint(const circuit::Circuit& circuit);

/// Every numeric/geometry field; the display name is excluded (it never
/// reaches a compile result).
[[nodiscard]] Digest128 fingerprint(const hardware::HardwareConfig& config);

[[nodiscard]] Digest128 fingerprint(const placement::GraphineOptions& options);
[[nodiscard]] Digest128 fingerprint(const placement::Topology& topology);

/// Weighted interaction graph content: qubit count plus every (a, b, weight)
/// edge in canonical order. This is the circuit identity of one placement
/// window — two windows with the same reindexed subgraph share a digest even
/// when cut from different circuits, which is what lets windowed placement
/// reuse per-window anneals across a corpus.
[[nodiscard]] Digest128 fingerprint(const circuit::InteractionGraph& graph);

/// Full pipeline::CompileOptions: all per-stage options, the master seed,
/// assume_transpiled, and (when set) the preset topology's content.
[[nodiscard]] Digest128 fingerprint(const pipeline::CompileOptions& options);

/// Transpile options alone (the sweep keys its shared transpilations on it).
[[nodiscard]] Digest128 fingerprint(const circuit::TranspileOptions& options);

/// Key of a cache handle's transpile map (CompilationCache::find_transpiled):
/// the raw circuit's canonical bytes, name included, then the transpile
/// options. It names the value fingerprint(transpile(raw, options)), so a
/// warm request derives its result keys without transpiling.
[[nodiscard]] Digest128 transpiled_input_key(
    const circuit::Circuit& raw, const circuit::TranspileOptions& options);

// --- cache keys ---------------------------------------------------------------

/// Key for a cached annealed placement: the effective (transpiled) circuit's
/// fingerprint plus the placement options with their derived seed.
[[nodiscard]] Digest128 placement_key(
    const Digest128& circuit_fingerprint,
    const placement::GraphineOptions& options);

/// Key for a cached whole compile result (a sweep cell). `noise` is
/// non-null iff a success probability rides with the result; `shots` is
/// non-null iff shot plans do — their option fields fold into the key so a
/// sweep wanting different derived outputs never hits an entry that lacks
/// them.
[[nodiscard]] Digest128 result_key(
    const Digest128& circuit_fingerprint, std::string_view technique,
    const std::vector<std::string>& pass_names,
    const hardware::HardwareConfig& config,
    const pipeline::CompileOptions& options,
    const noise::NoiseOptions* noise = nullptr,
    const shots::ShotOptions* shots = nullptr);

}  // namespace parallax::cache
