// Seeded byte mutations for the decoder fuzz tests. Each fuzz test feeds
// mutants of one valid payload to its decoder and requires a decode or the
// decoder's documented error: never another exception, a crash or a hang.
// The allocation probes cap their death-test child's address space, so a
// decoder that sizes a buffer from a declared count fails there as
// std::bad_alloc instead of touching memory.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <fstream>
#include <random>
#include <string>
#include <vector>

namespace parallax::fuzz {

/// Mutant number `i` of `bytes` (non-empty): by i % 4, one to three bit
/// flips, a truncation, a run of 0xFF, or a random 4-byte overwrite.
inline std::string mutate(std::string bytes, int i, std::mt19937_64& rng) {
  const std::size_t at = rng() % bytes.size();
  switch (i % 4) {
    case 0:  // bit flips
      for (int flips = 1 + static_cast<int>(rng() % 3); flips > 0; --flips) {
        const std::size_t bit = rng() % (bytes.size() * 8);
        bytes[bit / 8] = static_cast<char>(bytes[bit / 8] ^ (1 << (bit % 8)));
      }
      break;
    case 1:  // truncation
      bytes.resize(at);
      break;
    case 2: {  // a run of 0xFF
      const std::size_t end = std::min(bytes.size(), at + 1 + rng() % 16);
      for (std::size_t k = at; k < end; ++k) bytes[k] = static_cast<char>(0xFF);
      break;
    }
    default:  // a random 4-byte overwrite
      for (std::size_t k = at; k < std::min(bytes.size(), at + 4); ++k) {
        bytes[k] = static_cast<char>(rng() % 256);
      }
      break;
  }
  return bytes;
}

/// What a run of mutants did: how many decoded, how many were rejected with
/// a documented error, and the messages of the first few that escaped.
struct Tally {
  std::size_t decoded = 0;
  std::size_t rejected = 0;
  std::vector<std::string> escapes;
};

/// Feeds `count` seeded mutants of `bytes` to `decode` and sorts each
/// outcome. A throw of one of `Documented...` is a rejection; any other
/// exception is an escape. Stops early after ten escapes.
template <typename... Documented, typename Decode>
Tally run_mutants(const std::string& bytes, std::uint64_t seed, int count,
                  const Decode& decode) {
  std::mt19937_64 rng(seed);
  Tally tally;
  for (int i = 0; i < count && tally.escapes.size() < 10; ++i) {
    try {
      decode(mutate(bytes, i, rng));
      ++tally.decoded;
    } catch (const std::exception& error) {
      if ((... || (dynamic_cast<const Documented*>(&error) != nullptr))) {
        ++tally.rejected;
      } else {
        tally.escapes.push_back("mutant " + std::to_string(i) + ": " +
                                error.what());
      }
    }
  }
  return tally;
}

/// Caps this process's address space `headroom` bytes above its current
/// size (or at the hard limit, if that is lower); false if it could not.
/// Sanitizer builds reserve terabytes of shadow up front, so the cap is
/// relative, not absolute.
inline bool cap_address_space(std::uint64_t headroom) {
  std::ifstream status("/proc/self/status");
  std::uint64_t size_kb = 0;
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmSize:", 0) == 0) size_kb = std::stoull(line.substr(7));
  }
  rlimit limit{};
  if (size_kb == 0 || ::getrlimit(RLIMIT_AS, &limit) != 0) return false;
  const rlim_t wanted = size_kb * 1024 + headroom;
  limit.rlim_cur = limit.rlim_max == RLIM_INFINITY
                       ? wanted
                       : std::min<rlim_t>(wanted, limit.rlim_max);
  return ::setrlimit(RLIMIT_AS, &limit) == 0;
}

}  // namespace parallax::fuzz
