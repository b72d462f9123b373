// Two-tier content-addressed byte store behind the compilation cache: an
// in-memory LRU (bounded by bytes) in front of an on-disk directory of
// entries named by their 128-bit key, plus an append-only index file.
//
// Disk layout under `directory`:
//   objects/<hh>/<32-hex>.bin   one entry; <hh> = first two hex chars
//   index.log                   one line per store: "<32-hex> <kind> <bytes>"
//   tmp/                        staging for atomic writes
//
// Entry file format: a fixed header (magic, payload version, kind, payload
// size, 64-bit payload checksum) followed by the payload. get() re-validates
// everything; a truncated file, a flipped byte, a version from a newer or
// older build, or a kind mismatch all degrade to a silent miss (and the bad
// file is unlinked best-effort) — never an exception to the caller.
//
// Write-back: every disk write goes through a FIFO of pending writes, and
// flush() performs them on its calling thread in put order. With no
// WriteBack guard held, put() flushes before it returns, so the entry is on
// disk when put() returns. While a guard is held, put() inserts into the
// memory tier at once and leaves the disk write queued for a later flush();
// sweep::run holds one for the whole run and flushes on its calling thread
// while the pool compiles. A queued entry shares its payload buffer with
// the memory tier, and get() serves it (as a memory hit) even after the
// memory tier dropped it. clear() and the destructor flush first, and
// releasing a guard flushes. stats() and entries() do not: a serve STATS
// request must not wait behind a running sweep's writes, so during a sweep
// they count and list what has reached disk so far.
//
// Concurrency: every operation is safe to call from the sweep driver's
// worker threads. The LRU/stats bookkeeping and the queue sit behind one
// mutex held only for map and queue operations; file reads and writes run
// outside it, so worker threads' reads proceed in parallel (the content
// address makes a doubly-read or doubly-written entry harmless — identical
// bytes), and one flusher at a time writes. Across processes, object writes
// are write-to-tmp + rename (atomic on POSIX), so readers never observe a
// partial entry; the worst cross-process race is a duplicate index line,
// which the index reader dedups.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util/hash.hpp"

namespace parallax::cache {

using util::Digest128;

/// Payload kinds; folded into the entry header so a key collision across
/// kinds (impossible by construction, cheap to double-check) misses.
enum class Kind : std::uint32_t {
  kPlacement = 1,
  kResult = 2,
};

[[nodiscard]] const char* to_string(Kind kind) noexcept;

/// Bump to retire every existing on-disk entry (serialization change).
/// v2: Layer::aod_moves joined the layer codec (per-layer movement-loss
/// accounting for the discrete-event simulator).
/// v3: the header's checksum is XXH64 (util::checksum64); payloads are
/// v2's bytes.
inline constexpr std::uint32_t kPayloadVersion = 3;

struct StoreOptions {
  /// On-disk root; empty disables the disk tier (memory-only cache).
  std::string directory;
  /// Memory-tier budget; entries beyond it are evicted least-recently-used
  /// (they remain on disk). 0 disables the memory tier.
  std::size_t max_memory_bytes = 64ull << 20;
  /// Disk-tier budget (entry files including headers); 0 = unbounded.
  /// When exceeded, entries are evicted LRU-by-index-order: index.log
  /// append order is the recency order (a re-put moves an entry to the
  /// back), so the least-recently-written entry goes first. Evicted entries
  /// degrade to clean misses — exactly like an entry that was never
  /// written. This is what keeps long sharded campaigns from growing a
  /// shared cache directory without bound. The budget is enforced per
  /// process over its open-time snapshot plus its own writes: N concurrent
  /// writers can transiently overshoot toward N x budget, and the next
  /// budgeted open trims the directory back. Sequential shard runs (the
  /// common campaign shape) stay within budget throughout.
  std::uint64_t max_disk_bytes = 0;
};

struct StoreStats {
  std::size_t memory_hits = 0;
  std::size_t disk_hits = 0;
  std::size_t misses = 0;
  std::size_t stores = 0;
  std::size_t evictions = 0;
  /// Disk-tier entries evicted to honor max_disk_bytes.
  std::size_t disk_evictions = 0;
  /// Current disk-tier usage (tracked only when max_disk_bytes > 0).
  std::uint64_t disk_bytes = 0;
  /// Entries dropped because validation failed (truncation, checksum,
  /// version, kind).
  std::size_t corrupt = 0;
  std::uint64_t bytes_written = 0;
  std::uint64_t bytes_read = 0;
};

class Store {
 public:
  explicit Store(StoreOptions options);
  /// Flushes the queued disk writes.
  ~Store();

  /// While at least one guard on a store is alive, that store's put()
  /// leaves its disk write queued for flush(). Guards count: the queue
  /// stays on until the last one is released, and each release flushes.
  /// The store must outlive its guards.
  class WriteBack {
   public:
    explicit WriteBack(Store& store);
    WriteBack(WriteBack&& other) noexcept;
    WriteBack& operator=(WriteBack&&) = delete;
    ~WriteBack();

   private:
    Store* store_;  // null once moved from
  };

  /// One buffer per payload, shared by the memory tier, the queue and the
  /// readers it is lent to; immutable once stored.
  using Payload = std::shared_ptr<const std::string>;

  /// The payload bytes for `key`, lent, or null (absent or invalid). A
  /// memory hit lends the tier's own buffer, a disk hit the buffer it just
  /// read and moved into the tier: the bytes are never copied out. A lent
  /// buffer outlives its eviction for as long as its reader holds it; the
  /// tier's byte budget counts only the entries it holds.
  [[nodiscard]] Payload get(Kind kind, const Digest128& key);

  /// Stores a payload in both tiers: in memory at once, on disk before
  /// put() returns unless a WriteBack guard is held. Overwrites are
  /// idempotent — the content address guarantees identical bytes.
  void put(Kind kind, const Digest128& key, std::string payload);

  /// Performs the queued disk writes on the calling thread, in put order;
  /// puts made while it runs wait for the next flush. Never throws: a
  /// failed write is skipped quietly, a later miss, as when put() writes.
  void flush() noexcept;

  [[nodiscard]] StoreStats stats() const;
  [[nodiscard]] const std::string& directory() const noexcept {
    return options_.directory;
  }
  [[nodiscard]] bool has_disk_tier() const noexcept {
    return !options_.directory.empty();
  }

  /// One row per distinct on-disk entry (from the index, falling back to a
  /// directory scan when the index is missing), existence-checked.
  struct IndexEntry {
    Digest128 key;
    Kind kind = Kind::kPlacement;
    std::uint64_t payload_bytes = 0;
  };
  [[nodiscard]] std::vector<IndexEntry> entries() const;

  /// Drops both tiers; returns the number of disk entries removed.
  std::size_t clear();

 private:
  struct MemKey {
    Kind kind;
    Digest128 key;
    friend auto operator<=>(const MemKey&, const MemKey&) noexcept = default;
  };
  using LruList = std::list<std::pair<MemKey, Payload>>;
  struct PendingWrite {
    MemKey key;
    Payload payload;
  };

  [[nodiscard]] std::string object_path(const Digest128& key) const;
  /// Lists object files by reading each header (32 bytes, never the
  /// payload) — the index-less fallback shared by entries() and
  /// load_disk_usage(). Scan order stands in for the lost recency order.
  [[nodiscard]] std::vector<IndexEntry> scan_objects() const;
  /// Inserts or replaces; replacement matters when a stale-but-checksummed
  /// payload was loaded before its entry was recomputed and re-put.
  void memory_insert_locked(const MemKey& key, const Payload& payload);

  /// Lock-free disk helpers: all shared state they touch is atomic or
  /// guarded separately; callers fold the returned accounting into stats_
  /// under the mutex.
  struct DiskRead {
    /// The entry's payload, null unless the file read and validated.
    Payload payload;
    std::uint64_t bytes_read = 0;
    bool corrupt = false;
  };
  [[nodiscard]] DiskRead disk_read(Kind kind, const Digest128& key);
  struct DiskWrite {
    /// 0 when the write was skipped or failed.
    std::uint64_t bytes_written = 0;
    /// Entries unlinked to honor max_disk_bytes.
    std::size_t evictions = 0;
  };
  [[nodiscard]] DiskWrite disk_write(Kind kind, const Digest128& key,
                                     const std::string& payload);

  // --- disk budget tracking (only active when max_disk_bytes > 0) ------------
  struct DiskEntryInfo {
    Digest128 key;
    Kind kind = Kind::kPlacement;
    std::uint64_t file_bytes = 0;
  };
  /// Entries in index-append order (front = least recently written); the
  /// tracking members below are guarded by index_mutex_.
  using DiskList = std::list<DiskEntryInfo>;
  /// Rebuilds the tracking state from index.log (existence-checked), or
  /// from an object-directory scan when the index is missing — a budget
  /// must bound pre-existing files even if the user deleted the log.
  void load_disk_usage();
  /// Unlinks least-recently-written entries until within budget. Caller
  /// holds index_mutex_. Returns the number of evictions.
  std::size_t evict_over_budget_locked();
  /// Records/refreshes an entry and evicts front entries while over budget.
  /// Caller holds index_mutex_. Returns the number of evictions.
  std::size_t track_disk_entry_locked(const Digest128& key, Kind kind,
                                      std::uint64_t file_bytes);
  /// Forgets an entry whose file was dropped outside eviction (corruption).
  void untrack_disk_entry(const Digest128& key);
  /// Rewrites index.log from disk_order_ once dead lines (evicted or
  /// re-put entries) dominate, so a churning budgeted campaign keeps the
  /// log bounded too, not just the objects. Caller holds index_mutex_.
  void maybe_compact_index_locked();
  /// Unconditional index.log rewrite from disk_order_ (atomic
  /// write-to-tmp + rename, failures quietly keep the old log). Caller
  /// holds index_mutex_.
  void compact_index_locked();

  StoreOptions options_;
  mutable std::mutex mutex_;  // LRU, queue + stats bookkeeping, never IO
  LruList lru_;  // front = most recently used
  std::map<MemKey, LruList::iterator> by_key_;
  std::size_t memory_bytes_ = 0;
  std::deque<PendingWrite> pending_;  // front = oldest put
  std::size_t write_back_holders_ = 0;
  /// Held by flush() throughout, so one flusher at a time pops the queue's
  /// front and the files land in put order.
  std::mutex flush_mutex_;
  std::atomic<std::uint64_t> tmp_counter_{0};
  mutable std::mutex index_mutex_;  // index.log appends + disk tracking
  DiskList disk_order_;
  std::map<Digest128, DiskList::iterator> disk_by_key_;
  std::uint64_t disk_bytes_ = 0;
  std::uint64_t stale_index_lines_ = 0;
  StoreStats stats_;
};

}  // namespace parallax::cache
