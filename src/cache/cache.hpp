// The persistent compilation cache: a typed facade over the two-tier store
// that persists annealed Graphine placements and whole compile results
// across processes. This is the subsystem that makes sweeps incremental —
// a rerun of a bench or figure script only re-anneals (O(q^5), paper
// Sec. III) circuits whose fingerprints actually changed, and whole sweep
// cells short-circuit on result hits with byte-identical payloads.
//
// Consumers:
//   * sweep::run (sweep/sweep.hpp) serves whole cells from it when
//     sweep::Options::cache is set (as scanned, undecoded bytes when the
//     serve layer sets Options::on_cached_cell), and backs the run's
//     pipeline::PlacementMemo with it (whole placements and windows), so
//     the graphine-placement pass replays earlier runs' anneals. It asks
//     the handle's transpile map for each raw circuit's transpiled
//     fingerprint before it transpiles, so a warm request on a long-lived
//     handle (a serve session) derives its keys without transpiling. It
//     holds the handle's write_back() guard for the whole run and flushes
//     on its calling thread while the pool compiles, so its puts reach
//     memory at once and disk by the time run() returns; a put outside a
//     sweep is on disk when it returns.
//   * tools/parallax_cli.cpp exposes `cache stats|clear|prewarm` and
//     --cache-dir/--no-cache flags.
//
// Failure philosophy: the cache must never turn a compile that would have
// succeeded into a failure. Unreadable directories, corrupt or stale
// entries, and version drift all degrade to misses; only programmer errors
// throw.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "cache/fingerprint.hpp"
#include "cache/serialize.hpp"
#include "cache/store.hpp"

namespace parallax::cache {

struct CacheOptions {
  /// Cache root; empty resolves to default_directory() at construction.
  std::string directory;
  /// Disable the disk tier entirely (memory-only; useful in tests and for
  /// PARALLAX-style "share within this process only" runs).
  bool disk = true;
  std::size_t max_memory_bytes = 64ull << 20;
  /// Disk-tier budget; 0 = unbounded. Over-budget entries are evicted
  /// LRU-by-index-order (least recently written first) and degrade to clean
  /// misses — the knob that keeps long sharded campaigns from growing a
  /// shared cache directory without bound (StoreOptions::max_disk_bytes).
  std::uint64_t max_disk_bytes = 0;
};

/// $PARALLAX_CACHE_DIR when set and non-empty, else ".parallax-cache"
/// (which is .gitignore'd).
[[nodiscard]] std::string default_directory();

struct CacheStats {
  std::size_t placement_hits = 0;
  std::size_t placement_misses = 0;
  std::size_t result_hits = 0;
  std::size_t result_misses = 0;
  /// Transpile-map lookups (CompilationCache::find_transpiled) answered from
  /// the map / that missed, so the caller transpiled.
  std::size_t transpiles_skipped = 0;
  std::size_t transpiles_run = 0;
  StoreStats store;
};

class CompilationCache {
 public:
  explicit CompilationCache(CacheOptions options = {});

  /// Convenience for the common shared_ptr plumbing (sweep::Options::cache).
  [[nodiscard]] static std::shared_ptr<CompilationCache> open(
      CacheOptions options = {});

  [[nodiscard]] std::optional<placement::Topology> get_placement(
      const Digest128& key);
  void put_placement(const Digest128& key,
                     const placement::Topology& topology);

  [[nodiscard]] std::optional<CachedCell> get_result(const Digest128& key);
  /// The result hit as its payload bytes: get_result's store read and
  /// hit/miss accounting, with scan_cell over the buffer the store lends
  /// in place of the decode. A payload the scan rejects is a miss, as one
  /// parse_cell rejects is for get_result.
  [[nodiscard]] std::optional<ScannedCell> get_result_bytes(
      const Digest128& key);
  void put_result(const Digest128& key, const CachedCell& cell);

  /// The transpile map: transpiled_input_key(raw, options) ->
  /// fingerprint(transpile(raw, options)). It only saves recomputing a pure
  /// function this handle has already seen computed, so it changes no key
  /// or payload. It lives in memory only, never in either store tier, so a
  /// fresh handle on the same directory starts empty. It holds at most
  /// kTranspiledEntries entries and evicts the oldest first. A hit counts
  /// in CacheStats::transpiles_skipped, a miss in transpiles_run; after a
  /// miss, the caller transpiles and records the fingerprint.
  static constexpr std::size_t kTranspiledEntries = std::size_t{1} << 14;
  [[nodiscard]] std::optional<Digest128> find_transpiled(
      const Digest128& raw_key);
  /// Records a fingerprint after its transpile succeeded; a key already
  /// present keeps its entry and age.
  void record_transpiled(const Digest128& raw_key,
                         const Digest128& transpiled_fingerprint);

  /// Until the returned guard is released, puts through this handle
  /// leave their disk writes queued for flush() (Store::WriteBack).
  [[nodiscard]] Store::WriteBack write_back() {
    return Store::WriteBack(store_);
  }
  /// Performs the queued disk writes on the calling thread (Store::flush).
  void flush() noexcept { store_.flush(); }

  [[nodiscard]] CacheStats stats() const;
  [[nodiscard]] std::vector<Store::IndexEntry> entries() const {
    return store_.entries();
  }
  /// Wipes both tiers; returns removed disk-entry count.
  std::size_t clear() { return store_.clear(); }

  [[nodiscard]] const std::string& directory() const noexcept {
    return store_.directory();
  }
  [[nodiscard]] bool has_disk_tier() const noexcept {
    return store_.has_disk_tier();
  }

 private:
  struct DigestHash {
    std::size_t operator()(const Digest128& d) const noexcept { return d.lo; }
  };

  Store store_;
  mutable std::mutex mutex_;  // stats_ and the transpile map
  CacheStats stats_;
  std::unordered_map<Digest128, Digest128, DigestHash> transpiled_;
  std::deque<Digest128> transpiled_order_;  // front = oldest
};

}  // namespace parallax::cache
