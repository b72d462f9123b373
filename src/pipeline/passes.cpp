#include "pipeline/passes.hpp"

#include <cmath>
#include <utility>

#include "baselines/eldi_placement.hpp"
#include "baselines/static_schedule.hpp"
#include "baselines/swap_router.hpp"
#include "circuit/interaction_graph.hpp"
#include "pipeline/placement_memo.hpp"
#include "placement/windowed.hpp"
#include "util/rng.hpp"

namespace parallax::pipeline::passes {

namespace {

/// Fills ctx.positions from the discretized topology's sites.
void positions_from_topology(CompileContext& ctx) {
  ctx.positions.clear();
  ctx.positions.reserve(ctx.result.topology.sites.size());
  for (const auto& cell : ctx.result.topology.sites) {
    ctx.positions.push_back(ctx.result.topology.grid.position(cell));
  }
}

/// Misassembled-pipeline guard: stages past placement need the physical
/// topology (one site per logical qubit) to be in place.
void require_topology(const CompileContext& ctx, const char* pass_name) {
  if (ctx.result.topology.sites.size() !=
      static_cast<std::size_t>(ctx.result.circuit.n_qubits())) {
    throw CompileError(std::string(pass_name) +
                       " pass needs a physical topology; add a placement "
                       "(and, for normalized placements, discretize) pass "
                       "before it");
  }
}

/// The hardware-compatible interaction radius for grid-native placements:
/// diagonal neighbours are reachable (8-connectivity), the setting the paper
/// applies to make ELDI comparable. Blockade is 2.5x (paper Sec. I-A).
void set_grid_native_radii(CompileContext& ctx) {
  ctx.result.topology.interaction_radius_um =
      ctx.result.topology.grid.pitch() * std::sqrt(2.0) * (1.0 + 1e-9);
  ctx.result.topology.blockade_radius_um =
      2.5 * ctx.result.topology.interaction_radius_um;
}

}  // namespace

Pass transpile() {
  return Pass("transpile", [](CompileContext& ctx) {
    ctx.result.circuit = ctx.options.assume_transpiled
                             ? ctx.input
                             : circuit::transpile(ctx.input,
                                                  ctx.options.transpile);
  });
}

Pass graphine_placement() {
  return Pass("graphine-placement", [](CompileContext& ctx) {
    if (ctx.options.preset_topology) {
      ctx.normalized = *ctx.options.preset_topology;
      return;
    }
    placement::GraphineOptions options = ctx.options.placement;
    options.seed = util::derive_seed(ctx.options.seed, ctx.input.name(),
                                     util::kPlacementSeedSalt);
    // A window cap the circuit fits under changes nothing, so it must not
    // perturb the placement key (which feeds the field only when non-zero).
    if (options.max_window_qubits > 0 &&
        ctx.result.circuit.n_qubits() <= options.max_window_qubits) {
      options.max_window_qubits = 0;
    }
    PlacementMemo::Placed placed;
    if (ctx.shared.memo != nullptr) {
      placed = ctx.shared.memo->place(ctx.result.circuit,
                                      ctx.shared.input_fingerprint, options);
    } else {
      placed.topology = placement::windowed_place(
          circuit::InteractionGraph(ctx.result.circuit), options,
          &placed.stats);
      placed.annealed = true;
    }
    ctx.normalized = std::move(placed.topology);
    ctx.pass_cached = !placed.annealed;
  });
}

Pass eldi_placement() {
  return Pass("eldi-placement", [](CompileContext& ctx) {
    const geom::Grid grid(ctx.config.grid_side, ctx.config.pitch_um());
    const std::int32_t region_side = baselines::eldi_region_side(
        ctx.result.circuit.n_qubits(), ctx.config.grid_side);
    const circuit::InteractionGraph graph(ctx.result.circuit);
    ctx.result.topology.grid = grid;
    ctx.result.topology.sites =
        baselines::compact_grid_placement(graph, grid, region_side);
    set_grid_native_radii(ctx);
    positions_from_topology(ctx);
  });
}

Pass identity_placement() {
  return Pass("identity-placement", [](CompileContext& ctx) {
    const geom::Grid grid(ctx.config.grid_side, ctx.config.pitch_um());
    const auto n = ctx.result.circuit.n_qubits();
    const auto side = std::min<std::int32_t>(
        ctx.config.grid_side,
        static_cast<std::int32_t>(
            std::ceil(std::sqrt(static_cast<double>(std::max(1, n))))));
    ctx.result.topology.grid = grid;
    ctx.result.topology.sites.clear();
    ctx.result.topology.sites.reserve(static_cast<std::size_t>(n));
    for (std::int32_t q = 0; q < n; ++q) {
      ctx.result.topology.sites.push_back(geom::Cell{q % side, q / side});
    }
    set_grid_native_radii(ctx);
    positions_from_topology(ctx);
  });
}

Pass discretize() {
  return Pass("discretize", [](CompileContext& ctx) {
    if (!ctx.normalized) {
      throw CompileError(
          "discretize pass needs a normalized placement; add a placement "
          "pass (e.g. graphine-placement) before it");
    }
    ctx.result.topology = placement::discretize(*ctx.normalized, ctx.config,
                                                ctx.options.discretize);
    positions_from_topology(ctx);
  });
}

Pass aod_selection() {
  return Pass("aod-selection", [](CompileContext& ctx) {
    require_topology(ctx, "aod-selection");
    ctx.machine.emplace(ctx.config, ctx.result.topology);
    const compiler::AodSelectionResult selection = compiler::select_aod_qubits(
        ctx.result.circuit, *ctx.machine, ctx.options.aod_selection);
    ctx.result.in_aod = selection.in_aod;
  });
}

Pass schedule() {
  return Pass("schedule", [](CompileContext& ctx) {
    require_topology(ctx, "schedule");
    if (!ctx.machine) ctx.machine.emplace(ctx.config, ctx.result.topology);
    compiler::SchedulerOptions options = ctx.options.scheduler;
    options.shuffle_seed = util::derive_seed(ctx.options.seed,
                                             ctx.input.name(),
                                             util::kShuffleSeedSalt);
    compiler::ScheduleOutput output =
        compiler::schedule_gates(ctx.result.circuit, *ctx.machine, options);
    ctx.result.layers = std::move(output.layers);
    ctx.result.layer_gates = std::move(output.layer_gates);
    ctx.result.stats = output.stats;
    ctx.result.runtime_us = output.runtime_us;
  });
}

Pass swap_route() {
  return Pass("swap-route", [](CompileContext& ctx) {
    require_topology(ctx, "swap-route");
    baselines::RoutedCircuit routed = baselines::route_with_swaps(
        ctx.result.circuit, ctx.positions,
        ctx.result.topology.interaction_radius_um);
    ctx.result.stats.out_of_range_cz = routed.routed_cz;
    ctx.result.circuit = std::move(routed.circuit);
  });
}

Pass static_schedule() {
  return Pass("static-schedule", [](CompileContext& ctx) {
    require_topology(ctx, "static-schedule");
    baselines::StaticScheduleOutput output = baselines::schedule_static(
        ctx.result.circuit, ctx.positions,
        ctx.result.topology.blockade_radius_um, ctx.config,
        util::derive_seed(ctx.options.seed, ctx.input.name(),
                          util::kShuffleSeedSalt));
    ctx.result.layers = std::move(output.layers);
    ctx.result.layer_gates = std::move(output.layer_gates);
    ctx.result.runtime_us = output.runtime_us;
    if (ctx.options.scheduler.record_positions) {
      // Baseline atoms never move: every layer executes at the placement's
      // static configuration. Recording it per layer gives the simulator
      // and the continuous-time ledger the same input shape as Parallax.
      for (auto& layer : ctx.result.layers) layer.positions = ctx.positions;
    }
    ctx.result.in_aod.assign(
        static_cast<std::size_t>(ctx.result.circuit.n_qubits()), 0);
    ctx.result.stats.u3_gates = ctx.result.circuit.u3_count();
    ctx.result.stats.cz_gates = ctx.result.circuit.cz_count();
    ctx.result.stats.swap_gates = ctx.result.circuit.swap_count();
    ctx.result.stats.layers = ctx.result.layers.size();
  });
}

}  // namespace parallax::pipeline::passes
