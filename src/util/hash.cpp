#include "util/hash.hpp"

#include <bit>
#include <cstring>

namespace parallax::util {

namespace {

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

constexpr std::uint64_t byteswap64(std::uint64_t v) noexcept {
  v = ((v & 0x00ff00ff00ff00ffULL) << 8) | ((v >> 8) & 0x00ff00ff00ff00ffULL);
  v = ((v & 0x0000ffff0000ffffULL) << 16) |
      ((v >> 16) & 0x0000ffff0000ffffULL);
  return (v << 32) | (v >> 32);
}

/// SplitMix64 finalizer: full avalanche over one word.
constexpr std::uint64_t avalanche(std::uint64_t z) noexcept {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// The little-endian Unsigned at `bytes`, on every target.
template <typename Unsigned>
Unsigned load_le(const unsigned char* bytes) noexcept {
  Unsigned v;
  std::memcpy(&v, bytes, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    if constexpr (sizeof(v) == 8) {
      v = byteswap64(v);
    } else {
      v = static_cast<Unsigned>(byteswap64(v) >> 32);
    }
  }
  return v;
}

// XXH64's primes.
constexpr std::uint64_t kPrime1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t kPrime2 = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kPrime3 = 0x165667b19e3779f9ULL;
constexpr std::uint64_t kPrime4 = 0x85ebca77c2b2ae63ULL;
constexpr std::uint64_t kPrime5 = 0x27d4eb2f165667c5ULL;

/// One lane's step over one 8-byte word.
constexpr std::uint64_t xxh_round(std::uint64_t lane,
                                  std::uint64_t word) noexcept {
  return rotl(lane + word * kPrime2, 31) * kPrime1;
}

constexpr std::uint64_t xxh_merge(std::uint64_t hash,
                                  std::uint64_t lane) noexcept {
  return (hash ^ xxh_round(0, lane)) * kPrime1 + kPrime4;
}

constexpr int hex_value(char c) noexcept {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

}  // namespace

std::string Digest128::hex() const {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out(32, '0');
  for (int i = 0; i < 16; ++i) {
    out[static_cast<std::size_t>(15 - i)] = kDigits[(hi >> (4 * i)) & 0xF];
    out[static_cast<std::size_t>(31 - i)] = kDigits[(lo >> (4 * i)) & 0xF];
  }
  return out;
}

std::optional<Digest128> Digest128::from_hex(std::string_view hex) {
  if (hex.size() != 32) return std::nullopt;
  Digest128 digest;
  for (int i = 0; i < 32; ++i) {
    const int v = hex_value(hex[static_cast<std::size_t>(i)]);
    if (v < 0) return std::nullopt;
    auto& word = i < 16 ? digest.hi : digest.lo;
    word = (word << 4) | static_cast<std::uint64_t>(v);
  }
  return digest;
}

void Hash128::mix_word(std::uint64_t word) noexcept {
  a_ = rotl((a_ ^ word) * kMulA, 29) + b_;
  b_ = rotl((b_ ^ word) * kMulB, 31) + a_;
}

void Hash128::update(const void* data, std::size_t size) noexcept {
  const auto* bytes = static_cast<const unsigned char*>(data);
  length_ += size;
  // Top up a partial word left by a previous chunk.
  while (pending_bytes_ != 0 && pending_bytes_ < 8 && size != 0) {
    pending_ |= static_cast<std::uint64_t>(*bytes++) << (8 * pending_bytes_++);
    --size;
  }
  if (pending_bytes_ == 8) {
    mix_word(pending_);
    pending_ = 0;
    pending_bytes_ = 0;
  }
  while (size >= 8) {
    std::uint64_t word;
    std::memcpy(&word, bytes, 8);
    // Canonical little-endian words on every target, matching the
    // byte-at-a-time pending_ path, so digests are platform-independent.
    if constexpr (std::endian::native == std::endian::big) {
      word = byteswap64(word);
    }
    mix_word(word);
    bytes += 8;
    size -= 8;
  }
  for (std::size_t i = 0; i < size; ++i) {
    pending_ |= static_cast<std::uint64_t>(bytes[i]) << (8 * pending_bytes_++);
  }
}

Digest128 Hash128::digest() const noexcept {
  std::uint64_t a = a_;
  std::uint64_t b = b_;
  // Fold in the trailing partial word tagged with its width, then the total
  // length, so "abc" + "" and "ab" + "c" agree but "abc\0" and "abc" do not.
  const std::uint64_t tail =
      pending_ ^ (static_cast<std::uint64_t>(pending_bytes_) << 56);
  a = rotl((a ^ tail) * kMulA, 29) + b;
  b = rotl((b ^ tail) * kMulB, 31) + a;
  a ^= length_;
  b ^= rotl(length_, 32);
  const std::uint64_t hi = avalanche(a + rotl(b, 27));
  const std::uint64_t lo = avalanche(b + rotl(a, 25) + 0x38b34ae5a1e38b93ULL);
  return {hi, lo};
}

Digest128 hash128(const void* data, std::size_t size,
                  std::uint64_t seed) noexcept {
  Hash128 hasher(seed);
  hasher.update(data, size);
  return hasher.digest();
}

std::uint64_t checksum64(const void* data, std::size_t size) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  const unsigned char* const end = p + size;
  std::uint64_t hash;
  if (size >= 32) {
    // Four lanes, each over every fourth word of the 32-byte stripes.
    std::uint64_t v1 = kPrime1 + kPrime2;
    std::uint64_t v2 = kPrime2;
    std::uint64_t v3 = 0;
    std::uint64_t v4 = 0 - kPrime1;
    for (const unsigned char* const limit = end - 32; p <= limit; p += 32) {
      v1 = xxh_round(v1, load_le<std::uint64_t>(p));
      v2 = xxh_round(v2, load_le<std::uint64_t>(p + 8));
      v3 = xxh_round(v3, load_le<std::uint64_t>(p + 16));
      v4 = xxh_round(v4, load_le<std::uint64_t>(p + 24));
    }
    hash = rotl(v1, 1) + rotl(v2, 7) + rotl(v3, 12) + rotl(v4, 18);
    hash = xxh_merge(hash, v1);
    hash = xxh_merge(hash, v2);
    hash = xxh_merge(hash, v3);
    hash = xxh_merge(hash, v4);
  } else {
    hash = kPrime5;
  }
  hash += static_cast<std::uint64_t>(size);
  // The tail: whole words, then a half word, then single bytes.
  for (; end - p >= 8; p += 8) {
    hash = rotl(hash ^ xxh_round(0, load_le<std::uint64_t>(p)), 27) * kPrime1 +
           kPrime4;
  }
  if (end - p >= 4) {
    hash = rotl(hash ^ (load_le<std::uint32_t>(p) * kPrime1), 23) * kPrime2 +
           kPrime3;
    p += 4;
  }
  for (; p != end; ++p) {
    hash = rotl(hash ^ (*p * kPrime5), 11) * kPrime1;
  }
  hash ^= hash >> 33;
  hash *= kPrime2;
  hash ^= hash >> 29;
  hash *= kPrime3;
  hash ^= hash >> 32;
  return hash;
}

}  // namespace parallax::util
