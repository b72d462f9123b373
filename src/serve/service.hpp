// The long-lived sweep-serving session: one SweepService owns one
// cache::CompilationCache (the session state) and one persistent
// util::ThreadPool, and executes submitted SweepSpecs through sweep::run,
// streaming each Cell to the submitter's callback as it completes.
//
// Why a service beats a batch job: the cache makes requests incremental
// across the session (and across restarts, through its disk tier). A
// request that overlaps an earlier one is served from whole-cell result
// hits — zero anneals, byte-identical cells — and the cache's in-memory LRU
// doubles as the hot working set. Cancellation is cooperative and cheap:
// cells not yet started never run, so aborting an in-flight request costs
// at most one cell's compile time.
//
// Execution model: requests run one at a time on a dedicated dispatcher
// thread; each request's cells fan out across the shared pool. Serializing
// requests is deliberate — overlapping sweeps would fight for the same
// cores, and the second of two overlapping requests is exactly the case the
// result cache turns into a no-compute replay. Across clients the
// dispatcher is fair-share, not FIFO: each client has its own queue and the
// dispatcher round-robins over clients in ascending id order, so one tenant
// queueing a hundred sweeps cannot starve another's first.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "cache/cache.hpp"
#include "serve/protocol.hpp"
#include "shard/spec.hpp"
#include "sweep/sweep.hpp"
#include "technique/registry.hpp"
#include "util/thread_pool.hpp"

namespace parallax::serve {

struct ServiceOptions {
  /// Persistent worker threads; 0 selects hardware concurrency.
  std::size_t n_threads = 0;
  /// The session state. Null serves every request cold (still correct —
  /// only the overlap-replay property is lost).
  std::shared_ptr<cache::CompilationCache> cache;
};

/// sweep::Options::on_cached_cell: a result-cache hit as bytes.
using CachedCellHook =
    std::function<void(const sweep::Cell&, const cache::ScannedCell&)>;

/// Handle to one submitted request. Thread-safe.
class Ticket {
 public:
  /// Requests cooperative cancellation: cells not yet started are skipped;
  /// the in-flight cell (if any) completes. Idempotent, callable from any
  /// thread, including from the request's own on_cell callback.
  void cancel() noexcept { token_->store(true, std::memory_order_relaxed); }

  /// Blocks until the request finished (completed, failed, or cancelled).
  /// By then every on_cell/on_done callback has returned. Returns a copy, so
  /// `const Summary& s = service.submit(spec)->wait();` stays valid after
  /// the temporary shared_ptr (and with it the Ticket) is gone.
  Summary wait();

  [[nodiscard]] bool done() const;
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] std::uint64_t client_id() const noexcept { return client_id_; }

 private:
  friend class SweepService;

  Ticket(std::uint64_t id, std::uint64_t client_id, shard::SweepSpec spec,
         std::function<void(const sweep::Cell&)> on_cell,
         std::function<void(const Summary&)> on_done,
         CachedCellHook on_cached_cell);
  /// Publishes the summary: runs on_done, then releases wait()ers.
  void finish(Summary summary);

  const std::uint64_t id_;
  const std::uint64_t client_id_;
  shard::SweepSpec spec_;
  std::function<void(const sweep::Cell&)> on_cell_;
  std::function<void(const Summary&)> on_done_;
  CachedCellHook on_cached_cell_;
  std::shared_ptr<std::atomic<bool>> token_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  Summary summary_;
};

class SweepService {
 public:
  explicit SweepService(
      ServiceOptions options = {},
      const technique::Registry& registry = technique::Registry::global());
  /// Cancels the in-flight request and every queue (their waiters all
  /// release, summaries marked cancelled), then joins the dispatcher.
  ~SweepService();

  SweepService(const SweepService&) = delete;
  SweepService& operator=(const SweepService&) = delete;

  /// Enqueues a request on `client_id`'s queue. Never blocks on
  /// compilation. `on_cell` fires once per executed cell from worker
  /// threads (see sweep::Options::on_cell for the concurrency contract);
  /// `on_done` fires exactly once, from the dispatcher thread, after the
  /// last on_cell and before wait() releases. `id` is an opaque caller
  /// label carried into Ticket::id(); requests sharing a client id execute
  /// in submission order relative to each other. When `on_cached_cell` is
  /// set, result-cache hits go to it as undecoded bytes instead of to
  /// `on_cell` (sweep::Options::on_cached_cell).
  std::shared_ptr<Ticket> submit(
      shard::SweepSpec spec,
      std::function<void(const sweep::Cell&)> on_cell = {},
      std::function<void(const Summary&)> on_done = {}, std::uint64_t id = 0,
      std::uint64_t client_id = 0, CachedCellHook on_cached_cell = {});

  /// Ensures `client_id` has an accounting row (all-zero until its first
  /// request completes). The server calls this at accept time so a STATS
  /// snapshot lists connected-but-idle clients too. Rows are never removed:
  /// a disconnected client's work stays attributed, which is what keeps the
  /// per-client columns summing to the session totals.
  void register_client(std::uint64_t client_id);

  [[nodiscard]] const std::shared_ptr<cache::CompilationCache>& cache()
      const noexcept {
    return options_.cache;
  }
  [[nodiscard]] std::size_t threads() const noexcept { return pool_.size(); }

  /// Session-wide accounting since construction: completed requests, cells
  /// executed/failed, anneals paid, the session cache's own hit/miss
  /// counters, and one ClientStats row per registered client (ascending
  /// client_id; connection-level fields left zero — the server overlays
  /// those, since only it knows about sockets). Callable from any thread
  /// while a sweep is in flight.
  [[nodiscard]] SessionStats session_stats() const;

 private:
  /// Per-client ledger folded in on the dispatcher thread as each request
  /// completes, so one mutex acquisition per *request* — not per cell.
  struct ClientAccount {
    std::uint64_t requests = 0;
    std::uint64_t cells_executed = 0;
    std::uint64_t anneals = 0;
  };

  void dispatch_loop();
  [[nodiscard]] Summary execute(Ticket& ticket);
  /// The next ticket under the fair-share policy: the first non-empty
  /// queue whose client id follows last_served_ in ascending-wrapping
  /// order. Caller holds mutex_; returns null when every queue is empty.
  [[nodiscard]] std::shared_ptr<Ticket> pop_next_locked();

  ServiceOptions options_;
  const technique::Registry& registry_;
  util::ThreadPool pool_;
  const std::chrono::steady_clock::time_point started_ =
      std::chrono::steady_clock::now();

  // Session accounting, folded in as each request completes.
  std::atomic<std::uint64_t> requests_completed_{0};
  std::atomic<std::uint64_t> cells_executed_{0};
  std::atomic<std::uint64_t> cells_failed_{0};
  std::atomic<std::uint64_t> anneals_{0};

  mutable std::mutex accounts_mutex_;
  std::map<std::uint64_t, ClientAccount> accounts_;

  std::mutex mutex_;
  std::condition_variable cv_;
  /// One FIFO per client; fairness happens across the map, order within a
  /// client's own queue is preserved.
  std::map<std::uint64_t, std::deque<std::shared_ptr<Ticket>>> queues_;
  std::size_t queued_ = 0;
  std::uint64_t last_served_ = 0;
  std::shared_ptr<Ticket> running_;
  bool stop_ = false;
  std::thread dispatcher_;
};

}  // namespace parallax::serve
