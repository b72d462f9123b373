// 128-bit streaming content hash for the compilation cache's
// content-addressed keys (src/cache). Not cryptographic: the goal is a
// stable, collision-resistant-enough fingerprint whose value is identical
// across runs, platforms, and compilers, so cache entries written by one
// process are found by the next. Inputs are canonicalized by the caller
// (cache/fingerprint.hpp feeds fixed-width little-endian bytes); the hash
// itself is a two-lane multiply-xor mixer with cross-lane diffusion and a
// SplitMix64-style finalizer per lane.
#pragma once

#include <compare>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace parallax::util {

/// A 128-bit digest, printable as 32 lowercase hex characters. Ordered so it
/// can key std::map and name content-addressed files.
struct Digest128 {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;

  friend constexpr bool operator==(const Digest128&,
                                   const Digest128&) noexcept = default;
  friend constexpr auto operator<=>(const Digest128&,
                                    const Digest128&) noexcept = default;

  /// 32 lowercase hex characters, hi word first.
  [[nodiscard]] std::string hex() const;
  /// Parses the hex() format; nullopt on malformed input.
  [[nodiscard]] static std::optional<Digest128> from_hex(std::string_view hex);
};

/// Streaming hasher. update() may be called any number of times with any
/// chunking — the digest depends only on the byte sequence (and the seed),
/// never on chunk boundaries.
class Hash128 {
 public:
  explicit constexpr Hash128(std::uint64_t seed = 0) noexcept
      : a_(kOffsetA ^ seed), b_(kOffsetB ^ (seed * kMulB)) {}

  void update(const void* data, std::size_t size) noexcept;
  void update(std::string_view bytes) noexcept {
    update(bytes.data(), bytes.size());
  }

  /// Finalizes a copy of the state; the hasher stays usable.
  [[nodiscard]] Digest128 digest() const noexcept;

 private:
  static constexpr std::uint64_t kOffsetA = 0x9ae16a3b2f90404fULL;
  static constexpr std::uint64_t kOffsetB = 0xc949d7c7509e6557ULL;
  static constexpr std::uint64_t kMulA = 0x9ddfea08eb382d69ULL;
  static constexpr std::uint64_t kMulB = 0xff51afd7ed558ccdULL;

  void mix_word(std::uint64_t word) noexcept;

  std::uint64_t a_;
  std::uint64_t b_;
  std::uint64_t length_ = 0;
  // Partial word buffer so chunk boundaries don't affect the digest.
  std::uint64_t pending_ = 0;
  unsigned pending_bytes_ = 0;
};

/// One-shot convenience.
[[nodiscard]] Digest128 hash128(const void* data, std::size_t size,
                                std::uint64_t seed = 0) noexcept;

/// 64-bit checksum in the headers of cache entries, shard files and serve
/// frames (corruption detection only): XXH64, Yann Collet's published
/// 64-bit xxHash, at seed 0. Its four independent lanes hash a payload
/// about three times as fast as the serial Hash128 chain.
[[nodiscard]] std::uint64_t checksum64(const void* data,
                                       std::size_t size) noexcept;

}  // namespace parallax::util
