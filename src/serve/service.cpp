#include "serve/service.hpp"

#include <utility>

namespace parallax::serve {

Ticket::Ticket(std::uint64_t id, std::uint64_t client_id,
               shard::SweepSpec spec,
               std::function<void(const sweep::Cell&)> on_cell,
               std::function<void(const Summary&)> on_done,
               CachedCellHook on_cached_cell)
    : id_(id),
      client_id_(client_id),
      spec_(std::move(spec)),
      on_cell_(std::move(on_cell)),
      on_done_(std::move(on_done)),
      on_cached_cell_(std::move(on_cached_cell)),
      token_(std::make_shared<std::atomic<bool>>(false)) {}

void Ticket::finish(Summary summary) {
  {
    std::lock_guard lock(mutex_);
    summary_ = std::move(summary);
  }
  // on_done runs before wait() releases, so a waiter returning from wait()
  // knows every frame/callback for this request has been written — the
  // ordering the server relies on to tear a connection down safely.
  if (on_done_) on_done_(summary_);
  {
    std::lock_guard lock(mutex_);
    done_ = true;
  }
  cv_.notify_all();
}

Summary Ticket::wait() {
  std::unique_lock lock(mutex_);
  cv_.wait(lock, [this] { return done_; });
  return summary_;
}

bool Ticket::done() const {
  std::lock_guard lock(mutex_);
  return done_;
}

SweepService::SweepService(ServiceOptions options,
                           const technique::Registry& registry)
    : options_(std::move(options)),
      registry_(registry),
      pool_(options_.n_threads) {
  dispatcher_ = std::thread([this] { dispatch_loop(); });
}

SweepService::~SweepService() {
  {
    std::lock_guard lock(mutex_);
    stop_ = true;
    // Queued and running requests finish as cancelled, fast — the
    // dispatcher drains every queue before exiting, so every wait()
    // releases.
    for (const auto& [client_id, queue] : queues_) {
      for (const auto& ticket : queue) ticket->cancel();
    }
    if (running_) running_->cancel();
  }
  cv_.notify_all();
  dispatcher_.join();
}

std::shared_ptr<Ticket> SweepService::submit(
    shard::SweepSpec spec, std::function<void(const sweep::Cell&)> on_cell,
    std::function<void(const Summary&)> on_done, std::uint64_t id,
    std::uint64_t client_id, CachedCellHook on_cached_cell) {
  std::shared_ptr<Ticket> ticket(
      new Ticket(id, client_id, std::move(spec), std::move(on_cell),
                 std::move(on_done), std::move(on_cached_cell)));
  register_client(client_id);
  bool rejected = false;
  {
    std::lock_guard lock(mutex_);
    if (stop_) {
      rejected = true;
    } else {
      queues_[client_id].push_back(ticket);
      ++queued_;
    }
  }
  if (rejected) {
    Summary summary;
    summary.total_cells = ticket->spec_.total_cells();
    summary.error = "sweep service is shutting down";
    ticket->finish(std::move(summary));
    return ticket;
  }
  cv_.notify_all();
  return ticket;
}

void SweepService::register_client(std::uint64_t client_id) {
  std::lock_guard lock(accounts_mutex_);
  accounts_.try_emplace(client_id);
}

std::shared_ptr<Ticket> SweepService::pop_next_locked() {
  if (queued_ == 0) return nullptr;
  // The first non-empty queue strictly after the last-served client id,
  // wrapping to the smallest — deterministic round-robin regardless of
  // which client ids exist (ids are sparse: they are accept-order serials).
  auto pick = [this](auto begin, auto end) -> std::shared_ptr<Ticket> {
    for (auto it = begin; it != end; ++it) {
      if (it->second.empty()) continue;
      std::shared_ptr<Ticket> ticket = std::move(it->second.front());
      it->second.pop_front();
      --queued_;
      last_served_ = it->first;
      return ticket;
    }
    return nullptr;
  };
  if (auto ticket = pick(queues_.upper_bound(last_served_), queues_.end())) {
    return ticket;
  }
  return pick(queues_.begin(), queues_.upper_bound(last_served_));
}

void SweepService::dispatch_loop() {
  for (;;) {
    std::shared_ptr<Ticket> ticket;
    {
      std::unique_lock lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || queued_ > 0; });
      ticket = pop_next_locked();
      if (!ticket) return;  // stop_ set and nothing left to drain
      running_ = ticket;
    }
    Summary summary = execute(*ticket);
    requests_completed_.fetch_add(1, std::memory_order_relaxed);
    cells_executed_.fetch_add(summary.executed_cells,
                              std::memory_order_relaxed);
    cells_failed_.fetch_add(summary.failed_cells, std::memory_order_relaxed);
    anneals_.fetch_add(summary.anneals, std::memory_order_relaxed);
    {
      std::lock_guard lock(accounts_mutex_);
      ClientAccount& account = accounts_[ticket->client_id_];
      ++account.requests;
      account.cells_executed += summary.executed_cells;
      account.anneals += summary.anneals;
    }
    {
      std::lock_guard lock(mutex_);
      running_.reset();
    }
    ticket->finish(std::move(summary));
  }
}

SessionStats SweepService::session_stats() const {
  SessionStats stats;
  stats.requests = requests_completed_.load(std::memory_order_relaxed);
  stats.cells_executed = cells_executed_.load(std::memory_order_relaxed);
  stats.cells_failed = cells_failed_.load(std::memory_order_relaxed);
  stats.anneals = anneals_.load(std::memory_order_relaxed);
  stats.threads = pool_.size();
  if (options_.cache) {
    stats.cache_enabled = true;
    const cache::CacheStats cache_stats = options_.cache->stats();
    stats.result_cache_hits = cache_stats.result_hits;
    stats.result_cache_misses = cache_stats.result_misses;
    stats.placement_cache_hits = cache_stats.placement_hits;
    stats.placement_cache_misses = cache_stats.placement_misses;
  }
  stats.uptime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    started_)
          .count();
  {
    std::lock_guard lock(accounts_mutex_);
    stats.clients.reserve(accounts_.size());
    for (const auto& [client_id, account] : accounts_) {
      ClientStats row;
      row.client_id = client_id;
      row.requests = account.requests;
      row.cells_executed = account.cells_executed;
      row.anneals = account.anneals;
      stats.clients.push_back(row);
    }
  }
  return stats;
}

Summary SweepService::execute(Ticket& ticket) {
  Summary summary;
  summary.total_cells = ticket.spec_.total_cells();
  if (ticket.token_->load(std::memory_order_relaxed)) {
    // Cancelled while queued: never touch the matrix.
    summary.cancelled = true;
    summary.cancelled_cells = summary.total_cells;
    return summary;
  }

  sweep::Options options = ticket.spec_.options;
  options.pool = &pool_;
  options.cache = options_.cache;
  options.on_cell = ticket.on_cell_;
  options.on_cached_cell = ticket.on_cached_cell_;
  options.cancel = ticket.token_;

  try {
    const sweep::Result result =
        sweep::run(ticket.spec_.circuits, ticket.spec_.techniques,
                   ticket.spec_.machines, options, registry_);
    summary.anneals = result.anneals;
    summary.cancelled = result.cancelled;
    summary.result_cache_hits = result.result_cache_hits;
    summary.result_cache_misses = result.result_cache_misses;
    summary.placement_disk_hits = result.placement_disk_hits;
    summary.wall_seconds = result.wall_seconds;
    for (const auto& cell : result.cells) {
      if (cell.cancelled) {
        ++summary.cancelled_cells;
      } else if (!cell.skipped) {
        ++summary.executed_cells;
        if (!cell.ok()) ++summary.failed_cells;
      }
    }
  } catch (const std::exception& error) {
    summary.error = error.what();
  }
  return summary;
}

}  // namespace parallax::serve
