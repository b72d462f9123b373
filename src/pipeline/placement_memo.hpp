// The run-scoped Step-1 placement memo. Parallax compiles every technique
// from one Graphine annealed placement (the O(q^5) stage), so a run that
// compiles several techniques or machines for one circuit anneals it once.
// The graphine-placement pass consults the memo when Pipeline::run lends
// its CompileContext one (SharedPlacement); sweep::run lends one per run.
//
// A lookup tries, in order: the in-run compute-once map, the persistent
// whole-placement entry, and per-window entries (placement::WindowHooks),
// annealing only what all three miss. One key serves both tiers:
// cache::placement_key(fingerprint of the placed circuit, effective
// placement options).
#pragma once

#include <atomic>
#include <cstddef>

#include "circuit/circuit.hpp"
#include "placement/graphine.hpp"
#include "util/hash.hpp"
#include "util/memo.hpp"

namespace parallax::cache {
class CompilationCache;
}

namespace parallax::pipeline {

class PlacementMemo {
 public:
  /// `persistent` (optional) backs the in-run map with its disk tier and
  /// must outlive the memo.
  explicit PlacementMemo(cache::CompilationCache* persistent = nullptr)
      : persistent_(persistent) {}

  /// What one lookup produced. `stats` carries the anneal's counters only
  /// when this call annealed.
  struct Placed {
    placement::Topology topology;
    placement::PlacementStats stats;
    /// This call ran at least one anneal (false for in-run and disk hits).
    bool annealed = false;
  };

  /// The placement of `input` (whose cache::fingerprint is `fingerprint`)
  /// under `options`, which must already be effective: derived seed set,
  /// max_window_qubits zeroed when the circuit fits one window.
  [[nodiscard]] Placed place(const circuit::Circuit& input,
                             const util::Digest128& fingerprint,
                             const placement::GraphineOptions& options);

  /// Lookups served by the in-run map / lookups that had to go further.
  [[nodiscard]] std::size_t hits() const { return placements_.hits(); }
  [[nodiscard]] std::size_t misses() const { return placements_.misses(); }
  /// Whole placements and windows loaded from the persistent tier.
  [[nodiscard]] std::size_t disk_hits() const { return disk_hits_.load(); }
  /// Graphine anneals actually paid for (one per window when windowed).
  [[nodiscard]] std::size_t anneals() const { return anneals_.load(); }

 private:
  cache::CompilationCache* persistent_;
  util::Memo<util::Digest128, placement::Topology> placements_;
  std::atomic<std::size_t> disk_hits_{0};
  std::atomic<std::size_t> anneals_{0};
};

}  // namespace parallax::pipeline
