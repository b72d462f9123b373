// Executors the report orchestrator drives artifact sweeps through, with
// uniform accounting. Two ways to run one spec:
//   * InProcessRunner — sweep::run in this process, optionally against a
//     persistent cache: `bench` without --socket.
//   * ClientRunner    — a remote `parallax serve --socket` session over a
//     serve::Client connection: the session state lives in the server
//     (`bench --socket PATH`).
// Both return the same flat circuit-major sweep::Result (byte-identical
// under shard::canonical_bytes), which is what the differential report test
// asserts.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>

#include "cache/cache.hpp"
#include "serve/client.hpp"
#include "shard/spec.hpp"
#include "sweep/sweep.hpp"

namespace parallax::report {

/// Accounting accumulated across every spec a Runner executed — the
/// orchestrator's session-wide epilogue. All counters fold in per-sweep
/// tallies from sweep::Result (the serve path carries them in the request
/// summary).
struct RunTotals {
  std::uint64_t sweeps = 0;
  std::uint64_t cells = 0;
  std::uint64_t executed_cells = 0;
  std::uint64_t failed_cells = 0;
  std::uint64_t result_cache_hits = 0;
  std::uint64_t result_cache_misses = 0;
  std::uint64_t placement_disk_hits = 0;
  std::uint64_t anneals = 0;
  /// Sum of per-sweep wall clocks (the executor's compute time; the
  /// orchestrator measures end-to-end wall separately).
  double sweep_seconds = 0.0;
};

class Runner {
 public:
  virtual ~Runner() = default;

  /// Executes one spec and folds its accounting into totals(). Throws
  /// ReportError / serve::ServeError on request-level failure; per-cell
  /// compile errors are reported in the cells (the orchestrator checks).
  [[nodiscard]] sweep::Result run(const shard::SweepSpec& spec);

  /// Streaming hook invoked once per executed cell, from whichever thread
  /// completed it (see sweep::Options::on_cell for the concurrency
  /// contract) — the orchestrator's progress ticker.
  void set_on_cell(std::function<void(const sweep::Cell&)> on_cell) {
    on_cell_ = std::move(on_cell);
  }

  [[nodiscard]] const RunTotals& totals() const noexcept { return totals_; }

 protected:
  [[nodiscard]] virtual sweep::Result execute(
      const shard::SweepSpec& spec) = 0;

  std::function<void(const sweep::Cell&)> on_cell_;

 private:
  RunTotals totals_;
};

class InProcessRunner : public Runner {
 public:
  struct Config {
    /// Worker threads; 0 selects hardware concurrency.
    std::size_t n_threads = 0;
    /// Persistent cache shared by every sweep of the run; null keeps pure
    /// in-run memoization.
    std::shared_ptr<cache::CompilationCache> cache;
  };

  InProcessRunner() = default;
  explicit InProcessRunner(Config config) : config_(std::move(config)) {}

 protected:
  [[nodiscard]] sweep::Result execute(const shard::SweepSpec& spec) override;

 private:
  Config config_;
};

/// Runs specs through a connected serve::Client (a `parallax serve --socket`
/// session in another process).
class ClientRunner : public Runner {
 public:
  explicit ClientRunner(serve::Client& client) : client_(client) {}

 protected:
  [[nodiscard]] sweep::Result execute(const shard::SweepSpec& spec) override;

 private:
  serve::Client& client_;
};

}  // namespace parallax::report
