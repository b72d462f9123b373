// The one field list of every compile-option struct: `fields(ar, options)`
// visits the struct's fields in wire order through an archive. The sweep-spec
// writer and reader (shard/spec.cpp) and the cache-key fingerprints
// (fingerprint.cpp) are archives over these lists, so a field added here
// lands in specs and keys together.
//
// Besides fixed-width fields (boolean, i32, i64, u64, f64, enum_u8,
// enum_i32), a list may visit:
//   - label(name): a display name; specs carry it, keys skip it;
//   - topology(t) and optional(value, body);
//   - keyed_when(non_default, body): a group legacy cache keys never saw.
//     Specs always carry it; keys feed it only when non_default, so every
//     key written before the group existed stays byte-identical;
//   - expect(ok, what): a range check that only the spec reader enforces.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <string_view>
#include <type_traits>

#include "cache/fingerprint.hpp"
#include "cache/serialize.hpp"
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

/// `O` is `T` (read into) or `const T` (written or hashed).
template <typename O, typename T>
concept MaybeConst = std::same_as<std::remove_const_t<O>, T>;

/// The enum values a decoder accepts.
[[nodiscard]] constexpr bool known(placement::ProposalMode mode) noexcept {
  return mode == placement::ProposalMode::kFullVector ||
         mode == placement::ProposalMode::kBatched;
}
[[nodiscard]] constexpr bool known(noise::FidelityModel model) noexcept {
  return model == noise::FidelityModel::kClosedForm ||
         model == noise::FidelityModel::kSimulated;
}

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

/// The writing archive: into a Writer, a spec (every field); into a
/// Fingerprinter, a cache key (no labels; a legacy-invisible group only
/// when non-default).
template <typename Sink>
class FieldWriter {
 public:
  explicit FieldWriter(Sink& sink) noexcept : sink_(sink) {}

  void boolean(bool v) { sink_.boolean(v); }
  void i32(std::int32_t v) { sink_.i32(v); }
  void i64(std::int64_t v) { sink_.i64(v); }
  void u64(std::uint64_t v) { sink_.u64(v); }
  void f64(double v) { sink_.f64(v); }
  template <typename Enum>
  void enum_u8(Enum v) { sink_.u8(static_cast<std::uint8_t>(v)); }
  template <typename Enum>
  void enum_i32(Enum v) { sink_.i32(static_cast<std::int32_t>(v)); }
  void label(std::string_view name) {
    if constexpr (!kKey) sink_.str(name);
  }
  void topology(const placement::Topology& value) {
    sink_.str(serialize_topology(value));
  }
  template <typename T, typename Body>
  void optional(const std::optional<T>& value, Body body) {
    sink_.boolean(value.has_value());
    if (value) body(*value);
  }
  template <typename Body>
  void keyed_when(bool non_default, Body body) {
    if (!kKey || non_default) body();
  }
  void expect(bool, const char*) noexcept {}

 private:
  static constexpr bool kKey = std::is_same_v<Sink, Fingerprinter>;
  Sink& sink_;
};

}  // namespace parallax::cache
