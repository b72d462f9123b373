#include "cache/cache.hpp"

#include <cstdlib>

namespace parallax::cache {

std::string default_directory() {
  const char* env = std::getenv("PARALLAX_CACHE_DIR");
  if (env != nullptr && env[0] != '\0') return env;
  return ".parallax-cache";
}

namespace {

StoreOptions store_options(CacheOptions options) {
  StoreOptions store;
  if (options.disk) {
    store.directory =
        options.directory.empty() ? default_directory() : options.directory;
  }
  store.max_memory_bytes = options.max_memory_bytes;
  store.max_disk_bytes = options.max_disk_bytes;
  return store;
}

}  // namespace

CompilationCache::CompilationCache(CacheOptions options)
    : store_(store_options(std::move(options))) {}

std::shared_ptr<CompilationCache> CompilationCache::open(
    CacheOptions options) {
  return std::make_shared<CompilationCache>(std::move(options));
}

namespace {

/// A store read turned into a typed hit by `parse`, counted in `hits` or
/// `misses` under `mutex`. A payload that passed the store's checksum but
/// does not parse is schema drift from a build that forgot to bump a
/// version: still a miss, never a crash.
template <typename Parse>
auto read_counted(Store& store, Kind kind, const Digest128& key,
                  std::mutex& mutex, std::size_t& hits, std::size_t& misses,
                  const Parse& parse)
    -> std::optional<decltype(parse(Store::Payload()))> {
  if (const Store::Payload payload = store.get(kind, key)) {
    try {
      auto parsed = parse(payload);
      std::lock_guard lock(mutex);
      ++hits;
      return parsed;
    } catch (const std::exception&) {
    }
  }
  std::lock_guard lock(mutex);
  ++misses;
  return std::nullopt;
}

}  // namespace

std::optional<placement::Topology> CompilationCache::get_placement(
    const Digest128& key) {
  return read_counted(
      store_, Kind::kPlacement, key, mutex_, stats_.placement_hits,
      stats_.placement_misses,
      [](const Store::Payload& bytes) { return parse_topology(*bytes); });
}

void CompilationCache::put_placement(const Digest128& key,
                                     const placement::Topology& topology) {
  store_.put(Kind::kPlacement, key, serialize_topology(topology));
}

std::optional<CachedCell> CompilationCache::get_result(const Digest128& key) {
  return read_counted(
      store_, Kind::kResult, key, mutex_, stats_.result_hits,
      stats_.result_misses,
      [](const Store::Payload& bytes) { return parse_cell(*bytes); });
}

std::optional<ScannedCell> CompilationCache::get_result_bytes(
    const Digest128& key) {
  return read_counted(
      store_, Kind::kResult, key, mutex_, stats_.result_hits,
      stats_.result_misses,
      [](const Store::Payload& bytes) { return scan_cell(bytes); });
}

void CompilationCache::put_result(const Digest128& key,
                                  const CachedCell& cell) {
  store_.put(Kind::kResult, key, serialize_cell(cell));
}

std::optional<Digest128> CompilationCache::find_transpiled(
    const Digest128& raw_key) {
  std::lock_guard lock(mutex_);
  const auto it = transpiled_.find(raw_key);
  if (it == transpiled_.end()) {
    ++stats_.transpiles_run;
    return std::nullopt;
  }
  ++stats_.transpiles_skipped;
  return it->second;
}

void CompilationCache::record_transpiled(
    const Digest128& raw_key, const Digest128& transpiled_fingerprint) {
  std::lock_guard lock(mutex_);
  if (!transpiled_.emplace(raw_key, transpiled_fingerprint).second) return;
  transpiled_order_.push_back(raw_key);
  if (transpiled_order_.size() > kTranspiledEntries) {
    transpiled_.erase(transpiled_order_.front());
    transpiled_order_.pop_front();
  }
}

CacheStats CompilationCache::stats() const {
  CacheStats stats;
  {
    std::lock_guard lock(mutex_);
    stats = stats_;
  }
  stats.store = store_.stats();
  return stats;
}

}  // namespace parallax::cache
