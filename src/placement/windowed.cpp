#include "placement/windowed.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>

#include "util/hash.hpp"
#include "util/rng.hpp"

namespace parallax::placement {

namespace {

/// Reindexes the induced subgraph over window.qubits: node i of the result
/// is window.qubits[i]. Only edges with both endpoints inside the window
/// survive; cut edges are the stitcher's concern.
circuit::InteractionGraph induced_subgraph(
    const circuit::InteractionGraph& graph, const Window& window,
    const std::vector<std::int32_t>& window_of,
    const std::vector<std::int32_t>& local_index, std::int32_t window_id) {
  circuit::InteractionGraphBuilder builder;
  for (const circuit::WeightedEdge& e : graph.edges()) {
    if (window_of[static_cast<std::size_t>(e.a)] != window_id ||
        window_of[static_cast<std::size_t>(e.b)] != window_id) {
      continue;
    }
    builder.add_weighted(local_index[static_cast<std::size_t>(e.a)],
                         local_index[static_cast<std::size_t>(e.b)], e.weight);
  }
  return builder.build(static_cast<std::int32_t>(window.qubits.size()));
}

/// Content hash of a reindexed window subgraph; combined with the master
/// seed this gives every window a deterministic, thread-invariant seed that
/// depends only on what is being placed.
std::uint64_t subgraph_content(const circuit::InteractionGraph& subgraph) {
  util::Hash128 hash(0x77a5);
  const std::int64_t n = subgraph.n_qubits();
  hash.update(&n, sizeof n);
  for (const circuit::WeightedEdge& e : subgraph.edges()) {
    hash.update(&e.a, sizeof e.a);
    hash.update(&e.b, sizeof e.b);
    hash.update(&e.weight, sizeof e.weight);
  }
  return hash.digest().lo;
}

/// The four axis-aligned orientations of a tile (identity, mirror-x,
/// mirror-y, both). Rotations would add nothing: the annealer's layouts have
/// no preferred axis, and four options already let every cut edge pick the
/// nearer side of the tile.
geom::Point orient(const geom::Point& p, int orientation) {
  geom::Point q = p;
  if (orientation & 1) q.x = 1.0 - q.x;
  if (orientation & 2) q.y = 1.0 - q.y;
  return q;
}

}  // namespace

std::vector<Window> partition_windows(const circuit::InteractionGraph& graph,
                                      std::int32_t max_qubits) {
  const auto n = graph.n_qubits();
  std::vector<Window> windows;
  if (n <= 0) return windows;

  // Adjacency with weights, for heaviest-connection growth.
  std::vector<std::vector<std::pair<std::int32_t, std::int64_t>>> adj(
      static_cast<std::size_t>(n));
  for (const circuit::WeightedEdge& e : graph.edges()) {
    adj[static_cast<std::size_t>(e.a)].push_back({e.b, e.weight});
    if (e.b != e.a) adj[static_cast<std::size_t>(e.b)].push_back({e.a, e.weight});
  }

  std::vector<char> assigned(static_cast<std::size_t>(n), 0);

  // Seed order: heaviest weighted degree first, index ascending on ties.
  std::vector<std::int32_t> seeds(static_cast<std::size_t>(n));
  for (std::int32_t q = 0; q < n; ++q) seeds[static_cast<std::size_t>(q)] = q;
  std::stable_sort(seeds.begin(), seeds.end(),
                   [&](std::int32_t a, std::int32_t b) {
                     return graph.degree(a) > graph.degree(b);
                   });

  // connection[q]: total edge weight from q into the window being grown.
  std::vector<std::int64_t> connection(static_cast<std::size_t>(n), 0);
  std::vector<std::int32_t> touched;

  for (const std::int32_t seed : seeds) {
    if (assigned[static_cast<std::size_t>(seed)]) continue;
    if (graph.degree(seed) == 0) continue;  // isolated: packed below
    Window window;
    window.qubits.push_back(seed);
    assigned[static_cast<std::size_t>(seed)] = 1;
    touched.clear();
    for (const auto& [nb, w] : adj[static_cast<std::size_t>(seed)]) {
      if (assigned[static_cast<std::size_t>(nb)]) continue;
      if (connection[static_cast<std::size_t>(nb)] == 0) touched.push_back(nb);
      connection[static_cast<std::size_t>(nb)] += w;
    }
    while (static_cast<std::int32_t>(window.qubits.size()) < max_qubits) {
      // Pick the unassigned frontier qubit with the heaviest connection to
      // the window; lowest index on ties keeps the partition deterministic.
      std::int32_t best = -1;
      std::int64_t best_w = 0;
      for (const std::int32_t q : touched) {
        if (assigned[static_cast<std::size_t>(q)]) continue;
        const std::int64_t w = connection[static_cast<std::size_t>(q)];
        if (w > best_w || (w == best_w && best != -1 && q < best)) {
          best = q;
          best_w = w;
        }
      }
      if (best < 0) break;  // component exhausted
      window.qubits.push_back(best);
      assigned[static_cast<std::size_t>(best)] = 1;
      for (const auto& [nb, w] : adj[static_cast<std::size_t>(best)]) {
        if (assigned[static_cast<std::size_t>(nb)]) continue;
        if (connection[static_cast<std::size_t>(nb)] == 0) touched.push_back(nb);
        connection[static_cast<std::size_t>(nb)] += w;
      }
    }
    for (const std::int32_t q : touched) {
      connection[static_cast<std::size_t>(q)] = 0;
    }
    std::sort(window.qubits.begin(), window.qubits.end());
    windows.push_back(std::move(window));
  }

  // Isolated qubits: fill spare capacity in existing windows, then open
  // fresh ones. Ascending order everywhere keeps this deterministic.
  std::vector<std::int32_t> isolated;
  for (std::int32_t q = 0; q < n; ++q) {
    if (!assigned[static_cast<std::size_t>(q)]) isolated.push_back(q);
  }
  std::size_t next_window = 0;
  for (const std::int32_t q : isolated) {
    while (next_window < windows.size() &&
           static_cast<std::int32_t>(windows[next_window].qubits.size()) >=
               max_qubits) {
      ++next_window;
    }
    if (next_window == windows.size()) windows.push_back({});
    windows[next_window].qubits.push_back(q);
  }
  for (Window& w : windows) std::sort(w.qubits.begin(), w.qubits.end());
  return windows;
}

bool windowing_applies(const circuit::InteractionGraph& graph,
                       const GraphineOptions& options) noexcept {
  return options.max_window_qubits > 0 &&
         graph.n_qubits() > options.max_window_qubits;
}

Topology windowed_place(const circuit::InteractionGraph& graph,
                        const GraphineOptions& options, PlacementStats* stats,
                        const WindowHooks* hooks) {
  if (!windowing_applies(graph, options)) {
    return graphine_place(graph, options, stats);
  }

  const auto n = graph.n_qubits();
  const std::vector<Window> windows =
      partition_windows(graph, options.max_window_qubits);

  // Window membership tables shared by subgraph extraction and stitching.
  std::vector<std::int32_t> window_of(static_cast<std::size_t>(n), -1);
  std::vector<std::int32_t> local_index(static_cast<std::size_t>(n), -1);
  for (std::size_t w = 0; w < windows.size(); ++w) {
    for (std::size_t i = 0; i < windows[w].qubits.size(); ++i) {
      const auto q = static_cast<std::size_t>(windows[w].qubits[i]);
      window_of[q] = static_cast<std::int32_t>(w);
      local_index[q] = static_cast<std::int32_t>(i);
    }
  }

  // Anneal each window independently (window-local [0,1]^2 layouts).
  std::vector<Topology> layouts(windows.size());
  if (stats != nullptr) {
    stats->windows = static_cast<int>(windows.size());
  }
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const circuit::InteractionGraph subgraph = induced_subgraph(
        graph, windows[w], window_of, local_index,
        static_cast<std::int32_t>(w));
    GraphineOptions wopts = options;
    wopts.max_window_qubits = 0;  // window anneals never re-window
    wopts.seed = util::SplitMix64(options.seed ^ subgraph_content(subgraph))
                     .next();
    const WindowContext context{w, &windows[w], &subgraph, &wopts};
    if (hooks != nullptr && hooks->lookup) {
      if (std::optional<Topology> cached = hooks->lookup(context)) {
        layouts[w] = std::move(*cached);
        continue;
      }
    }
    PlacementStats wstats;
    layouts[w] = graphine_place(subgraph, wopts, &wstats);
    if (stats != nullptr) {
      stats->evaluations += wstats.evaluations;
      stats->delta_evaluations += wstats.delta_evaluations;
      stats->restarts += wstats.restarts;
      stats->local_searches += wstats.local_searches;
      stats->iterations += wstats.iterations;
      ++stats->windows_annealed;
    }
    if (hooks != nullptr && hooks->store) hooks->store(context, layouts[w]);
  }

  // Stitch: windows occupy tiles of a near-square grid in partition order
  // (hot windows first, since partitioning seeds by degree). Each tile then
  // greedily picks the orientation that shortens its cut edges to already
  // stitched tiles — deterministic, one pass.
  const auto tiles = static_cast<std::int32_t>(windows.size());
  const auto side = static_cast<std::int32_t>(
      std::ceil(std::sqrt(static_cast<double>(tiles))));
  const double tile_span = 1.0 / side;
  // Margin keeps neighboring windows from touching at tile borders; the
  // discretizer and radius selection both cope with any spacing, this just
  // keeps intra-window structure dominant over accidental adjacency.
  const double margin = 0.05 * tile_span;
  const double scale = tile_span - 2.0 * margin;

  Topology stitched;
  stitched.positions.assign(static_cast<std::size_t>(n), geom::Point{});
  std::vector<int> orientation(windows.size(), 0);

  auto tile_origin = [&](std::size_t w) {
    const auto row = static_cast<std::int32_t>(w) / side;
    const auto col = static_cast<std::int32_t>(w) % side;
    return geom::Point{col * tile_span + margin, row * tile_span + margin};
  };
  auto global_position = [&](std::size_t w, std::int32_t local,
                             int flip) {
    const geom::Point p =
        orient(layouts[w].positions[static_cast<std::size_t>(local)], flip);
    const geom::Point origin = tile_origin(w);
    return geom::Point{origin.x + p.x * scale, origin.y + p.y * scale};
  };

  for (std::size_t w = 0; w < windows.size(); ++w) {
    double best_cost = std::numeric_limits<double>::infinity();
    int best_flip = 0;
    for (int flip = 0; flip < 4; ++flip) {
      double cost = 0.0;
      for (const circuit::WeightedEdge& e : graph.edges()) {
        const auto wa = window_of[static_cast<std::size_t>(e.a)];
        const auto wb = window_of[static_cast<std::size_t>(e.b)];
        // Cut edges between this window and any already-stitched one.
        std::int32_t inside;
        std::int32_t outside;
        if (wa == static_cast<std::int32_t>(w) &&
            wb < static_cast<std::int32_t>(w)) {
          inside = e.a;
          outside = e.b;
        } else if (wb == static_cast<std::int32_t>(w) &&
                   wa < static_cast<std::int32_t>(w)) {
          inside = e.b;
          outside = e.a;
        } else {
          continue;
        }
        const geom::Point p = global_position(
            w, local_index[static_cast<std::size_t>(inside)], flip);
        const geom::Point q =
            stitched.positions[static_cast<std::size_t>(outside)];
        const double dx = p.x - q.x;
        const double dy = p.y - q.y;
        cost += static_cast<double>(e.weight) * std::sqrt(dx * dx + dy * dy);
      }
      if (cost < best_cost) {
        best_cost = cost;
        best_flip = flip;
      }
    }
    orientation[w] = best_flip;
    for (std::size_t i = 0; i < windows[w].qubits.size(); ++i) {
      stitched.positions[static_cast<std::size_t>(windows[w].qubits[i])] =
          global_position(w, static_cast<std::int32_t>(i), best_flip);
    }
  }

  stitched.interaction_radius = bottleneck_connect_radius(stitched.positions);
  return stitched;
}

}  // namespace parallax::placement
