// The one field list of every compile-option struct: `fields(ar, options)`
// visits the struct's fields in wire order through an archive
// (cache/archive.hpp, which lists the primitives). The sweep-spec writer and
// reader (shard/spec.cpp) and the cache-key fingerprints (fingerprint.cpp)
// are archives over these lists, so a field added here lands in specs and
// keys together.
#pragma once

#include "cache/archive.hpp"
#include "circuit/transpile.hpp"
#include "hardware/config.hpp"
#include "noise/model.hpp"
#include "parallax/aod_selection.hpp"
#include "parallax/scheduler.hpp"
#include "pipeline/pipeline.hpp"
#include "placement/discretize.hpp"
#include "placement/graphine.hpp"
#include "shots/parallelize.hpp"

namespace parallax::cache {

template <typename Archive, MaybeConst<circuit::TranspileOptions> O>
void fields(Archive& ar, O& o) {
  ar.boolean(o.fuse_single_qubit);
  ar.boolean(o.cancel_cz_pairs);
  ar.boolean(o.drop_identities);
  ar.f64(o.identity_tolerance);
  ar.i32(o.max_iterations);
}

template <typename Archive, MaybeConst<placement::GraphineOptions> O>
void fields(Archive& ar, O& o) {
  ar.i32(o.anneal_iterations);
  ar.i32(o.local_search_evaluations);
  ar.f64(o.crowding_distance);
  ar.f64(o.crowding_weight);
  ar.boolean(o.warm_start);
  ar.u64(o.seed);
  // Delta scoring and multi-chain annealing (legacy keys: full-vector,
  // single-chain).
  ar.keyed_when(o.proposal != placement::ProposalMode::kFullVector ||
                    o.chains != 1,
                [&] {
                  ar.enum_i32(o.proposal);
                  ar.i32(o.chains);
                });
  ar.expect(o.chains >= 1, "an annealer chain count below 1");
  // Windowing. Callers zero the cap when the circuit fits one window, so
  // it is keyed only when the windowed path changes the layout.
  ar.keyed_when(o.max_window_qubits != 0,
                [&] { ar.i32(o.max_window_qubits); });
  ar.expect(o.max_window_qubits >= 0, "a negative placement window");
  // The raced portfolio (0: no race).
  ar.keyed_when(o.portfolio_entrants != 0,
                [&] { ar.i32(o.portfolio_entrants); });
  ar.expect(o.portfolio_entrants >= 0, "a negative portfolio entrant count");
}

template <typename Archive, MaybeConst<placement::DiscretizeOptions> O>
void fields(Archive& ar, O& o) {
  ar.f64(o.spread_factor);
}

template <typename Archive, MaybeConst<compiler::SchedulerOptions> O>
void fields(Archive& ar, O& o) {
  ar.boolean(o.return_home);
  ar.i32(o.max_move_iterations);
  ar.u64(o.shuffle_seed);
  ar.boolean(o.record_positions);
}

template <typename Archive, MaybeConst<compiler::AodSelectionOptions> O>
void fields(Archive& ar, O& o) {
  ar.f64(o.out_of_range_weight);
  ar.f64(o.interference_weight);
}

template <typename Archive, MaybeConst<noise::FidelityOptions> O>
void fields(Archive& ar, O& o) {
  ar.enum_u8(o.model);
  ar.i64(o.shots);
  ar.f64(o.moving_decoherence_scale);
}

template <typename Archive, MaybeConst<pipeline::CompileOptions> O>
void fields(Archive& ar, O& o) {
  fields(ar, o.transpile);
  fields(ar, o.placement);
  fields(ar, o.discretize);
  fields(ar, o.scheduler);
  fields(ar, o.aod_selection);
  ar.boolean(o.assume_transpiled);
  ar.optional(o.preset_topology, [&](auto& preset) { ar.topology(preset); });
  ar.u64(o.seed);
  // Closed-form defaults are keyed exactly as before the simulator existed.
  ar.keyed_when(!o.fidelity.is_default(), [&] { fields(ar, o.fidelity); });
}

template <typename Archive, MaybeConst<hardware::HardwareConfig> O>
void fields(Archive& ar, O& o) {
  ar.label(o.name);
  ar.i32(o.grid_side);
  ar.expect(o.grid_side >= 1, "a malformed machine grid");
  ar.f64(o.min_separation_um);
  ar.f64(o.discretization_padding_um);
  ar.i32(o.aod_rows);
  ar.i32(o.aod_cols);
  ar.f64(o.u3_time_us);
  ar.f64(o.cz_time_us);
  ar.f64(o.swap_time_us);
  ar.f64(o.trap_switch_time_us);
  ar.f64(o.aod_speed_um_per_us);
  ar.f64(o.u3_error);
  ar.f64(o.cz_error);
  ar.f64(o.swap_error);
  ar.f64(o.trap_switch_error);
  ar.f64(o.movement_loss);
  ar.f64(o.atom_loss_rate);
  ar.f64(o.readout_error);
  ar.f64(o.t1_seconds);
  ar.f64(o.t2_seconds);
}

template <typename Archive, MaybeConst<noise::NoiseOptions> O>
void fields(Archive& ar, O& o) {
  ar.boolean(o.include_gate_errors);
  ar.boolean(o.include_decoherence);
  ar.boolean(o.include_operation_overheads);
  ar.boolean(o.include_readout);
  ar.boolean(o.include_atom_loss);
  ar.boolean(o.per_qubit_decoherence);
}

template <typename Archive, MaybeConst<shots::ShotOptions> O>
void fields(Archive& ar, O& o) {
  ar.i64(o.logical_shots);
  ar.f64(o.inter_shot_overhead_us);
}

}  // namespace parallax::cache
