// The stage library: every pass any technique assembles its pipeline from.
// Pass contracts (what each reads/writes on CompileContext):
//
//   transpile           input -> result.circuit ({U3, CZ} basis)
//   graphine-placement  result.circuit -> normalized       (paper Step 1)
//   eldi-placement      result.circuit -> result.topology, positions
//   identity-placement  result.circuit -> result.topology, positions
//   discretize          normalized -> result.topology, positions (Step 2)
//   aod-selection       result.topology -> machine, result.in_aod (Step 3)
//   schedule            machine -> result.layers/stats/runtime_us (Step 4)
//   swap-route          result.circuit + positions -> result.circuit (SWAPs)
//   static-schedule     result.circuit + positions -> result.layers/stats/
//                       runtime_us (blockade-respecting layers, atoms static)
#pragma once

#include "pipeline/pipeline.hpp"

namespace parallax::pipeline::passes {

/// Transpiles the input to the {U3, CZ} basis (no-op copy when
/// options.assume_transpiled is set).
[[nodiscard]] Pass transpile();

/// Paper Step 1: Graphine annealed placement on the normalized plane, seeded
/// per circuit via util::derive_seed. Honors options.preset_topology. The
/// only code that places a circuit: it derives the effective placement
/// options once and, when the context carries a run's PlacementMemo, shares
/// the placement through it (marking its timing rows cached on a hit).
[[nodiscard]] Pass graphine_placement();

/// ELDI's compact-grid greedy placement; grid-native, so it fills the
/// physical topology directly (8-neighbour interaction radius).
[[nodiscard]] Pass eldi_placement();

/// Naive placement: qubit q on the q-th cell of a compact square region in
/// row-major order (8-neighbour interaction radius). The "static" technique's
/// Step 1 — the no-optimization control every other technique is judged
/// against.
[[nodiscard]] Pass identity_placement();

/// Paper Step 2: snap the normalized placement onto the machine's site grid
/// under the minimum-separation constraint.
[[nodiscard]] Pass discretize();

/// Paper Step 3: AOD qubit selection (one atom per row/column pair).
[[nodiscard]] Pass aod_selection();

/// Paper Step 4: Algorithm 1 gate + movement scheduling.
[[nodiscard]] Pass schedule();

/// Resolves out-of-range CZs by SWAP chains over the in-range connectivity
/// graph of the static atom positions (baselines only).
[[nodiscard]] Pass swap_route();

/// Blockade-respecting layering for circuits on static atoms; finalizes the
/// baseline stats (gate counts, layers, out-of-range CZs).
[[nodiscard]] Pass static_schedule();

}  // namespace parallax::pipeline::passes
