#include "cache/store.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string_view>
#include <system_error>
#include <utility>

#include "cache/serialize.hpp"
#include "util/parse.hpp"

namespace parallax::cache {

namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t kMagic = 0x3145484341435850ULL;  // "PXCACHE1" LE
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8 + 8;

std::string encode_header(Kind kind, const std::string& payload) {
  Writer writer;
  writer.u64(kMagic);
  writer.u32(kPayloadVersion);
  writer.u32(static_cast<std::uint32_t>(kind));
  writer.u64(payload.size());
  writer.u64(util::checksum64(payload.data(), payload.size()));
  return writer.take();
}

/// Whether a whole entry file holds a valid `kind` entry: its header and
/// its payload's checksum, checked where they lie.
bool valid_entry(Kind kind, std::string_view contents) {
  if (contents.size() < kHeaderBytes) return false;
  Reader reader(contents);
  if (reader.u64() != kMagic) return false;
  if (reader.u32() != kPayloadVersion) return false;
  if (reader.u32() != static_cast<std::uint32_t>(kind)) return false;
  const std::uint64_t size = reader.u64();
  const std::uint64_t checksum = reader.u64();
  if (size != contents.size() - kHeaderBytes) return false;
  return util::checksum64(contents.data() + kHeaderBytes, size) == checksum;
}

/// The whole file in one buffer sized from its length, or nullopt.
std::optional<std::string> read_file(const fs::path& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return std::nullopt;
  struct stat info{};
  bool ok = ::fstat(fd, &info) == 0 && info.st_size >= 0;
  std::string contents;
  if (ok) {
    contents.resize(static_cast<std::size_t>(info.st_size));
    std::size_t got = 0;
    while (got < contents.size()) {
      const ssize_t n =
          ::read(fd, contents.data() + got, contents.size() - got);
      if (n < 0 && errno == EINTR) continue;
      // A file shorter than it was stops here: validation refuses it.
      if (n <= 0) {
        ok = n == 0;
        break;
      }
      got += static_cast<std::size_t>(n);
    }
    contents.resize(got);
  }
  ::close(fd);
  if (!ok) return std::nullopt;
  return contents;
}

void remove_quietly(const fs::path& path) noexcept {
  std::error_code ec;
  fs::remove(path, ec);
}

struct IndexLine {
  Digest128 key;
  Kind kind = Kind::kPlacement;
  std::uint64_t payload_bytes = 0;
};

/// Parses one "<32-hex> <kind> <payload_bytes>" index line, strictly.
/// Returns nullopt for anything malformed — a torn line from an append that
/// raced a concurrent process's compaction rename, hand-edited garbage, an
/// unknown kind — so one bad line never discards the rest of the index.
std::optional<IndexLine> parse_index_line(const std::string& line) {
  std::istringstream in(line);
  std::string hex, kind_token, bytes_token, extra;
  if (!(in >> hex >> kind_token >> bytes_token) || (in >> extra)) {
    return std::nullopt;
  }
  const auto key = Digest128::from_hex(hex);
  const auto kind = util::parse_u32(kind_token);
  const auto payload_bytes = util::parse_u64(bytes_token);
  if (!key || !kind || !payload_bytes.has_value()) return std::nullopt;
  if (*kind != static_cast<std::uint32_t>(Kind::kPlacement) &&
      *kind != static_cast<std::uint32_t>(Kind::kResult)) {
    return std::nullopt;
  }
  return IndexLine{*key, static_cast<Kind>(*kind), *payload_bytes};
}

}  // namespace

const char* to_string(Kind kind) noexcept {
  switch (kind) {
    case Kind::kPlacement:
      return "placement";
    case Kind::kResult:
      return "result";
  }
  return "unknown";
}

Store::Store(StoreOptions options) : options_(std::move(options)) {
  if (has_disk_tier()) {
    std::error_code ec;
    fs::create_directories(fs::path(options_.directory) / "objects", ec);
    fs::create_directories(fs::path(options_.directory) / "tmp", ec);
    // A read-only or unwritable location degrades to memory-only behavior;
    // individual writes below fail quietly too.
    if (options_.max_disk_bytes > 0) load_disk_usage();
  }
}

Store::~Store() { flush(); }

Store::WriteBack::WriteBack(Store& store) : store_(&store) {
  std::lock_guard lock(store.mutex_);
  ++store.write_back_holders_;
}

Store::WriteBack::WriteBack(WriteBack&& other) noexcept
    : store_(std::exchange(other.store_, nullptr)) {}

Store::WriteBack::~WriteBack() {
  if (store_ == nullptr) return;
  {
    std::lock_guard lock(store_->mutex_);
    --store_->write_back_holders_;
  }
  store_->flush();
}

void Store::load_disk_usage() {
  // Rebuild the recency order from index.log: append order is write order,
  // and a re-put appends again, so keeping the *last* occurrence of each key
  // reproduces least-recently-written-first eviction across processes.
  std::size_t evictions = 0;
  std::uint64_t usage = 0;
  bool rebuilt_from_scan = false;
  {
    std::lock_guard lock(index_mutex_);
    disk_order_.clear();
    disk_by_key_.clear();
    disk_bytes_ = 0;
    stale_index_lines_ = 0;
    std::map<Digest128, DiskList::iterator> seen;
    std::ifstream index(fs::path(options_.directory) / "index.log");
    if (index) {
      // Line-by-line so one torn or malformed line (a concurrent process's
      // append racing a compaction rename) skips that line only — a
      // whole-stream parse would silently drop every entry after it.
      std::string line;
      while (std::getline(index, line)) {
        const auto parsed = parse_index_line(line);
        if (!parsed) continue;
        if (const auto it = seen.find(parsed->key); it != seen.end()) {
          disk_order_.erase(it->second);  // re-put: refresh recency
          seen.erase(it);
        }
        disk_order_.push_back(
            {parsed->key, parsed->kind, kHeaderBytes + parsed->payload_bytes});
        seen[parsed->key] = std::prev(disk_order_.end());
      }
    } else {
      // Index lost (e.g. user deleted it): the budget must still bound the
      // object files, so rebuild the listing from the files themselves and
      // rewrite the index below — a later open must not lose track of the
      // recovered entries again.
      for (const IndexEntry& entry : scan_objects()) {
        disk_order_.push_back(
            {entry.key, entry.kind, kHeaderBytes + entry.payload_bytes});
        seen[entry.key] = std::prev(disk_order_.end());
      }
      rebuilt_from_scan = true;
    }
    for (auto it = disk_order_.begin(); it != disk_order_.end();) {
      std::error_code ec;
      if (!fs::exists(object_path(it->key), ec)) {
        it = disk_order_.erase(it);
        ++stale_index_lines_;
        continue;
      }
      disk_by_key_[it->key] = it;
      disk_bytes_ += it->file_bytes;
      ++it;
    }
    // Enforce the budget on whatever a previous (possibly unbounded) run
    // left behind, so opening a directory with a budget immediately honors
    // it.
    evictions = evict_over_budget_locked();
    if (rebuilt_from_scan) {
      compact_index_locked();  // persist the recovered listing
    } else {
      maybe_compact_index_locked();
    }
    usage = disk_bytes_;
  }
  std::lock_guard stats_lock(mutex_);
  stats_.disk_evictions += evictions;
  stats_.disk_bytes = usage;
}

std::size_t Store::evict_over_budget_locked() {
  std::size_t evictions = 0;
  while (disk_bytes_ > options_.max_disk_bytes && !disk_order_.empty()) {
    const DiskEntryInfo& victim = disk_order_.front();
    remove_quietly(object_path(victim.key));
    disk_bytes_ -= victim.file_bytes;
    disk_by_key_.erase(victim.key);
    disk_order_.pop_front();
    ++evictions;
    ++stale_index_lines_;
  }
  return evictions;
}

std::size_t Store::track_disk_entry_locked(const Digest128& key, Kind kind,
                                           std::uint64_t file_bytes) {
  if (const auto it = disk_by_key_.find(key); it != disk_by_key_.end()) {
    disk_bytes_ -= it->second->file_bytes;
    disk_order_.erase(it->second);
    disk_by_key_.erase(it);
    ++stale_index_lines_;  // the refreshed entry's old line is now dead
  }
  disk_order_.push_back({key, kind, file_bytes});
  disk_by_key_[key] = std::prev(disk_order_.end());
  disk_bytes_ += file_bytes;
  const std::size_t evictions = evict_over_budget_locked();
  maybe_compact_index_locked();
  return evictions;
}

void Store::untrack_disk_entry(const Digest128& key) {
  if (options_.max_disk_bytes == 0) return;
  std::lock_guard lock(index_mutex_);
  if (const auto it = disk_by_key_.find(key); it != disk_by_key_.end()) {
    disk_bytes_ -= it->second->file_bytes;
    disk_order_.erase(it->second);
    disk_by_key_.erase(it);
    ++stale_index_lines_;
  }
}

void Store::maybe_compact_index_locked() {
  // Compact once dead lines dominate live ones (with a floor so small
  // caches never bother). The rewrite races benignly with concurrent
  // processes: an append lost to the rename is an entry missing from the
  // listing until its next put, never a wrong hit — get() reads by path.
  if (stale_index_lines_ < disk_order_.size() + 64) return;
  compact_index_locked();
}

void Store::compact_index_locked() {
  const fs::path index_path = fs::path(options_.directory) / "index.log";
  // The tmp name carries pid AND a per-store counter: index_mutex_ is
  // per-Store (in-process), so two Store instances on one directory — same
  // pid, e.g. a serve session plus a CLI query — must not stage into the
  // same tmp file and interleave their rewrites. The loser of the final
  // rename race just leaves the winner's (equally valid) index in place.
  const fs::path tmp_path =
      fs::path(options_.directory) / "tmp" /
      ("index." + std::to_string(static_cast<long long>(::getpid())) + "." +
       std::to_string(tmp_counter_.fetch_add(1, std::memory_order_relaxed)) +
       ".tmp");
  {
    std::ofstream out(tmp_path, std::ios::trunc);
    if (!out) return;  // unwritable: keep appending, try again later
    for (const DiskEntryInfo& entry : disk_order_) {
      out << entry.key.hex() << ' ' << static_cast<std::uint32_t>(entry.kind)
          << ' ' << (entry.file_bytes - kHeaderBytes) << '\n';
    }
    if (!out.good()) {
      out.close();
      remove_quietly(tmp_path);
      return;
    }
  }
  std::error_code ec;
  fs::rename(tmp_path, index_path, ec);
  if (ec) {
    remove_quietly(tmp_path);
    return;
  }
  stale_index_lines_ = 0;
}

std::string Store::object_path(const Digest128& key) const {
  const std::string hex = key.hex();
  return (fs::path(options_.directory) / "objects" / hex.substr(0, 2) /
          (hex + ".bin"))
      .string();
}

std::vector<Store::IndexEntry> Store::scan_objects() const {
  std::vector<IndexEntry> found;
  std::error_code ec;
  for (fs::recursive_directory_iterator
           it(fs::path(options_.directory) / "objects", ec),
       end;
       !ec && it != end; it.increment(ec)) {
    if (!it->is_regular_file(ec)) continue;
    const auto key = Digest128::from_hex(it->path().stem().string());
    if (!key) continue;
    char header[kHeaderBytes];
    {
      std::ifstream in(it->path(), std::ios::binary);
      if (!in.read(header, kHeaderBytes)) continue;
    }
    Reader reader(std::string_view(header, kHeaderBytes));
    try {
      if (reader.u64() != kMagic) continue;
      if (reader.u32() != kPayloadVersion) continue;
      const auto kind = static_cast<Kind>(reader.u32());
      found.push_back({*key, kind, reader.u64()});
    } catch (const ReadError&) {
      continue;
    }
  }
  return found;
}

void Store::memory_insert_locked(const MemKey& key, const Payload& payload) {
  if (options_.max_memory_bytes == 0) return;
  if (const auto it = by_key_.find(key); it != by_key_.end()) {
    // Usually identical content (the address is the hash), but replace
    // anyway: a stale-schema payload that disk-hit into this tier must not
    // shadow the recomputed entry a later put() provides.
    memory_bytes_ -= it->second->second->size();
    it->second->second = payload;
    memory_bytes_ += payload->size();
    lru_.splice(lru_.begin(), lru_, it->second);
  } else {
    lru_.emplace_front(key, payload);
    by_key_[key] = lru_.begin();
    memory_bytes_ += payload->size();
  }
  while (memory_bytes_ > options_.max_memory_bytes && lru_.size() > 1) {
    memory_bytes_ -= lru_.back().second->size();
    by_key_.erase(lru_.back().first);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

Store::DiskRead Store::disk_read(Kind kind, const Digest128& key) {
  DiskRead outcome;
  const fs::path path = object_path(key);
  auto contents = read_file(path);
  if (!contents) return outcome;
  outcome.bytes_read = contents->size();
  if (!valid_entry(kind, *contents)) {
    // Corrupt, truncated, stale-version, or wrong-kind entry: drop it so the
    // next run rewrites a good one.
    outcome.corrupt = true;
    remove_quietly(path);
    return outcome;
  }
  // The payload stays in the buffer that read it: the header goes, and
  // the buffer becomes the memory tier's entry.
  contents->erase(0, kHeaderBytes);
  outcome.payload = std::make_shared<const std::string>(std::move(*contents));
  return outcome;
}

Store::DiskWrite Store::disk_write(Kind kind, const Digest128& key,
                                   const std::string& payload) {
  DiskWrite outcome;
  const std::string hex = key.hex();
  const fs::path final_path = object_path(key);
  std::error_code ec;
  fs::create_directories(final_path.parent_path(), ec);
  const fs::path tmp_path =
      fs::path(options_.directory) / "tmp" /
      (hex + "." + std::to_string(static_cast<long long>(::getpid())) + "." +
       std::to_string(tmp_counter_.fetch_add(1, std::memory_order_relaxed)) +
       ".tmp");
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) return outcome;  // unwritable cache dir: skip quietly
    const std::string header = encode_header(kind, payload);
    out.write(header.data(), static_cast<std::streamsize>(header.size()));
    out.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    if (!out.good()) {
      out.close();
      remove_quietly(tmp_path);
      return outcome;
    }
  }
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    remove_quietly(tmp_path);
    return outcome;
  }
  {
    std::lock_guard index_lock(index_mutex_);
    std::ofstream index(fs::path(options_.directory) / "index.log",
                        std::ios::app);
    if (index) {
      index << hex << ' ' << static_cast<std::uint32_t>(kind) << ' '
            << payload.size() << '\n';
    }
    if (options_.max_disk_bytes > 0) {
      outcome.evictions =
          track_disk_entry_locked(key, kind, kHeaderBytes + payload.size());
    }
  }
  outcome.bytes_written = kHeaderBytes + payload.size();
  return outcome;
}

Store::Payload Store::get(Kind kind, const Digest128& key) {
  const MemKey mem_key{kind, key};
  {
    std::lock_guard lock(mutex_);
    if (const auto it = by_key_.find(mem_key); it != by_key_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++stats_.memory_hits;
      return it->second->second;
    }
    // A queued write the memory tier dropped (or never held) must not miss
    // before its file lands.
    for (auto it = pending_.rbegin(); it != pending_.rend(); ++it) {
      if (it->key == mem_key) {
        ++stats_.memory_hits;
        return it->payload;
      }
    }
  }
  if (has_disk_tier()) {
    // IO outside the lock: concurrent readers of the same key just read the
    // same immutable file twice.
    DiskRead outcome = disk_read(kind, key);
    if (outcome.corrupt) untrack_disk_entry(key);  // its file was unlinked
    std::lock_guard lock(mutex_);
    stats_.bytes_read += outcome.bytes_read;
    if (outcome.corrupt) ++stats_.corrupt;
    if (outcome.payload) {
      ++stats_.disk_hits;
      memory_insert_locked(mem_key, outcome.payload);
      return std::move(outcome.payload);
    }
  }
  std::lock_guard lock(mutex_);
  ++stats_.misses;
  return nullptr;
}

void Store::put(Kind kind, const Digest128& key, std::string payload) {
  const MemKey mem_key{kind, key};
  // A serializer's buffer can hold up to twice its bytes, and the memory
  // tier keeps it for as long as the entry stays.
  payload.shrink_to_fit();
  auto shared = std::make_shared<const std::string>(std::move(payload));
  bool write_now = false;
  {
    std::lock_guard lock(mutex_);
    ++stats_.stores;
    memory_insert_locked(mem_key, shared);
    if (!has_disk_tier()) return;
    // Queued even when written at once, so the files land in put order
    // behind any write a guard left queued.
    pending_.push_back({mem_key, std::move(shared)});
    write_now = write_back_holders_ == 0;
  }
  if (write_now) flush();
}

void Store::flush() noexcept {
  const std::lock_guard flushing(flush_mutex_);
  std::size_t queued = 0;
  {
    std::lock_guard lock(mutex_);
    queued = pending_.size();
  }
  for (; queued > 0; --queued) {
    PendingWrite next;
    {
      std::lock_guard lock(mutex_);
      next = pending_.front();
    }
    // The entry stays queued, where get() finds it, until its file is in
    // place. Only an allocation can throw here; like a full disk, it
    // costs the entry its file, never the caller its flush.
    DiskWrite written;
    try {
      written = disk_write(next.key.kind, next.key.key, *next.payload);
    } catch (...) {
    }
    std::lock_guard lock(mutex_);
    pending_.pop_front();
    stats_.bytes_written += written.bytes_written;
    stats_.disk_evictions += written.evictions;
  }
}

StoreStats Store::stats() const {
  StoreStats stats;
  {
    std::lock_guard lock(mutex_);
    stats = stats_;
  }
  if (options_.max_disk_bytes > 0) {
    std::lock_guard lock(index_mutex_);
    stats.disk_bytes = disk_bytes_;
  }
  return stats;
}

std::vector<Store::IndexEntry> Store::entries() const {
  std::lock_guard lock(mutex_);
  std::vector<IndexEntry> result;
  if (!has_disk_tier()) return result;
  std::map<Digest128, IndexEntry> dedup;
  const fs::path root(options_.directory);
  std::ifstream index(root / "index.log");
  if (index) {
    std::string line;
    while (std::getline(index, line)) {
      const auto parsed = parse_index_line(line);
      if (!parsed) continue;  // malformed/torn line: skip, don't fail
      dedup[parsed->key] =
          IndexEntry{parsed->key, parsed->kind, parsed->payload_bytes};
    }
  } else {
    // Index lost (e.g. user deleted it): rebuild the listing from the
    // object files themselves, reading each header for kind and size.
    for (const IndexEntry& entry : scan_objects()) dedup[entry.key] = entry;
  }
  for (const auto& [key, entry] : dedup) {
    std::error_code ec;
    if (fs::exists(object_path(key), ec)) result.push_back(entry);
  }
  return result;
}

std::size_t Store::clear() {
  flush();
  std::lock_guard lock(mutex_);
  lru_.clear();
  by_key_.clear();
  memory_bytes_ = 0;
  {
    std::lock_guard index_lock(index_mutex_);
    disk_order_.clear();
    disk_by_key_.clear();
    disk_bytes_ = 0;
    stale_index_lines_ = 0;
  }
  stats_.disk_bytes = 0;
  if (!has_disk_tier()) return 0;
  std::size_t removed = 0;
  const fs::path root(options_.directory);
  std::error_code ec;
  for (fs::recursive_directory_iterator it(root / "objects", ec), end;
       !ec && it != end; it.increment(ec)) {
    if (it->is_regular_file(ec)) ++removed;
  }
  fs::remove_all(root / "objects", ec);
  fs::remove_all(root / "tmp", ec);
  remove_quietly(root / "index.log");
  fs::create_directories(root / "objects", ec);
  fs::create_directories(root / "tmp", ec);
  return removed;
}

}  // namespace parallax::cache
