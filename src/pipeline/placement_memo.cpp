#include "pipeline/placement_memo.hpp"

#include <optional>
#include <utility>

#include "cache/cache.hpp"
#include "circuit/interaction_graph.hpp"
#include "placement/windowed.hpp"

namespace parallax::pipeline {

namespace {

/// A window's identity is its reindexed subgraph's content plus its
/// effective options, so unchanged windows replay across circuits and runs.
cache::Digest128 window_key(const placement::WindowContext& window) {
  return cache::placement_key(cache::fingerprint(*window.subgraph),
                              *window.options);
}

}  // namespace

PlacementMemo::Placed PlacementMemo::place(
    const circuit::Circuit& input, const util::Digest128& fingerprint,
    const placement::GraphineOptions& options) {
  Placed placed;
  const cache::Digest128 key = cache::placement_key(fingerprint, options);
  placed.topology = placements_.get(key, [&] {
    if (persistent_ != nullptr) {
      if (auto stored = persistent_->get_placement(key)) {
        disk_hits_.fetch_add(1, std::memory_order_relaxed);
        return std::move(*stored);
      }
    }
    // Per-window entries let a windowed placement whose whole key missed
    // (say, one window's structure changed) replay every unchanged window.
    placement::WindowHooks hooks;
    if (persistent_ != nullptr) {
      hooks.lookup = [this](const placement::WindowContext& window) {
        std::optional<placement::Topology> stored =
            persistent_->get_placement(window_key(window));
        if (stored) disk_hits_.fetch_add(1, std::memory_order_relaxed);
        return stored;
      };
      hooks.store = [this](const placement::WindowContext& window,
                           const placement::Topology& layout) {
        persistent_->put_placement(window_key(window), layout);
      };
    }
    placement::Topology topology = placement::windowed_place(
        circuit::InteractionGraph(input), options, &placed.stats,
        persistent_ != nullptr ? &hooks : nullptr);
    // Stats count windows only on the windowed path; otherwise one anneal.
    const int anneals =
        placed.stats.windows > 0 ? placed.stats.windows_annealed : 1;
    anneals_.fetch_add(static_cast<std::size_t>(anneals),
                       std::memory_order_relaxed);
    placed.annealed = anneals > 0;
    if (persistent_ != nullptr) persistent_->put_placement(key, topology);
    return topology;
  });
  return placed;
}

}  // namespace parallax::pipeline
