#include "shard/spec.hpp"

#include <utility>

namespace parallax::shard {

namespace {

using cache::Reader;
using cache::ReadError;
using cache::Writer;

constexpr std::uint64_t kMagic = 0x3144524148535850ULL;  // "PXSHARD1" LE
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8 + 8;

void encode_transpile(Writer& w, const circuit::TranspileOptions& o) {
  w.boolean(o.fuse_single_qubit);
  w.boolean(o.cancel_cz_pairs);
  w.boolean(o.drop_identities);
  w.f64(o.identity_tolerance);
  w.i32(o.max_iterations);
}

circuit::TranspileOptions decode_transpile(Reader& r) {
  circuit::TranspileOptions o;
  o.fuse_single_qubit = r.boolean();
  o.cancel_cz_pairs = r.boolean();
  o.drop_identities = r.boolean();
  o.identity_tolerance = r.f64();
  o.max_iterations = r.i32();
  return o;
}

void encode_placement(Writer& w, const placement::GraphineOptions& o) {
  w.i32(o.anneal_iterations);
  w.i32(o.local_search_evaluations);
  w.f64(o.crowding_distance);
  w.f64(o.crowding_weight);
  w.boolean(o.warm_start);
  w.u64(o.seed);
}

placement::GraphineOptions decode_placement(Reader& r) {
  placement::GraphineOptions o;
  o.anneal_iterations = r.i32();
  o.local_search_evaluations = r.i32();
  o.crowding_distance = r.f64();
  o.crowding_weight = r.f64();
  o.warm_start = r.boolean();
  o.seed = r.u64();
  return o;
}

void encode_scheduler(Writer& w, const compiler::SchedulerOptions& o) {
  w.boolean(o.return_home);
  w.i32(o.max_move_iterations);
  w.u64(o.shuffle_seed);
  w.boolean(o.record_positions);
}

compiler::SchedulerOptions decode_scheduler(Reader& r) {
  compiler::SchedulerOptions o;
  o.return_home = r.boolean();
  o.max_move_iterations = r.i32();
  o.shuffle_seed = r.u64();
  o.record_positions = r.boolean();
  return o;
}

void encode_config(Writer& w, const hardware::HardwareConfig& c) {
  w.str(c.name);
  w.i32(c.grid_side);
  w.f64(c.min_separation_um);
  w.f64(c.discretization_padding_um);
  w.i32(c.aod_rows);
  w.i32(c.aod_cols);
  w.f64(c.u3_time_us);
  w.f64(c.cz_time_us);
  w.f64(c.swap_time_us);
  w.f64(c.trap_switch_time_us);
  w.f64(c.aod_speed_um_per_us);
  w.f64(c.u3_error);
  w.f64(c.cz_error);
  w.f64(c.swap_error);
  w.f64(c.trap_switch_error);
  w.f64(c.movement_loss);
  w.f64(c.atom_loss_rate);
  w.f64(c.readout_error);
  w.f64(c.t1_seconds);
  w.f64(c.t2_seconds);
}

hardware::HardwareConfig decode_config(Reader& r) {
  hardware::HardwareConfig c;
  c.name = r.str();
  c.grid_side = r.i32();
  c.min_separation_um = r.f64();
  c.discretization_padding_um = r.f64();
  c.aod_rows = r.i32();
  c.aod_cols = r.i32();
  c.u3_time_us = r.f64();
  c.cz_time_us = r.f64();
  c.swap_time_us = r.f64();
  c.trap_switch_time_us = r.f64();
  c.aod_speed_um_per_us = r.f64();
  c.u3_error = r.f64();
  c.cz_error = r.f64();
  c.swap_error = r.f64();
  c.trap_switch_error = r.f64();
  c.movement_loss = r.f64();
  c.atom_loss_rate = r.f64();
  c.readout_error = r.f64();
  c.t1_seconds = r.f64();
  c.t2_seconds = r.f64();
  if (c.grid_side < 1) {
    throw ReadError("shard spec has a malformed machine grid");
  }
  return c;
}

void encode_noise(Writer& w, const noise::NoiseOptions& o) {
  w.boolean(o.include_gate_errors);
  w.boolean(o.include_decoherence);
  w.boolean(o.include_operation_overheads);
  w.boolean(o.include_readout);
  w.boolean(o.include_atom_loss);
  w.boolean(o.per_qubit_decoherence);
}

noise::NoiseOptions decode_noise(Reader& r) {
  noise::NoiseOptions o;
  o.include_gate_errors = r.boolean();
  o.include_decoherence = r.boolean();
  o.include_operation_overheads = r.boolean();
  o.include_readout = r.boolean();
  o.include_atom_loss = r.boolean();
  o.per_qubit_decoherence = r.boolean();
  return o;
}

}  // namespace

void encode_spec_options(Writer& writer, const sweep::Options& options) {
  encode_transpile(writer, options.compile.transpile);
  encode_placement(writer, options.compile.placement);
  writer.f64(options.compile.discretize.spread_factor);
  encode_scheduler(writer, options.compile.scheduler);
  writer.f64(options.compile.aod_selection.out_of_range_weight);
  writer.f64(options.compile.aod_selection.interference_weight);
  writer.boolean(options.compile.assume_transpiled);
  writer.boolean(options.compile.preset_topology.has_value());
  if (options.compile.preset_topology) {
    cache::encode(writer, *options.compile.preset_topology);
  }
  writer.u64(options.compile.seed);
  writer.u32(static_cast<std::uint32_t>(options.compile.fidelity.model));
  writer.i64(options.compile.fidelity.shots);
  writer.f64(options.compile.fidelity.moving_decoherence_scale);
  writer.boolean(options.compute_success_probability);
  encode_noise(writer, options.noise);
  writer.boolean(options.shots.has_value());
  if (options.shots) {
    writer.i64(options.shots->logical_shots);
    writer.f64(options.shots->inter_shot_overhead_us);
  }
  writer.boolean(options.reuse_results);
}

sweep::Options decode_spec_options(Reader& reader) {
  sweep::Options options;
  options.compile.transpile = decode_transpile(reader);
  options.compile.placement = decode_placement(reader);
  options.compile.discretize.spread_factor = reader.f64();
  options.compile.scheduler = decode_scheduler(reader);
  options.compile.aod_selection.out_of_range_weight = reader.f64();
  options.compile.aod_selection.interference_weight = reader.f64();
  options.compile.assume_transpiled = reader.boolean();
  if (reader.boolean()) {
    options.compile.preset_topology = cache::decode_topology(reader);
  }
  options.compile.seed = reader.u64();
  const std::uint32_t fidelity_model = reader.u32();
  if (fidelity_model >
      static_cast<std::uint32_t>(noise::FidelityModel::kSimulated)) {
    throw ReadError("sweep spec has an unknown fidelity model");
  }
  options.compile.fidelity.model =
      static_cast<noise::FidelityModel>(fidelity_model);
  options.compile.fidelity.shots = reader.i64();
  options.compile.fidelity.moving_decoherence_scale = reader.f64();
  options.compute_success_probability = reader.boolean();
  options.noise = decode_noise(reader);
  if (reader.boolean()) {
    shots::ShotOptions shot_options;
    shot_options.logical_shots = reader.i64();
    shot_options.inter_shot_overhead_us = reader.f64();
    options.shots = shot_options;
  }
  options.reuse_results = reader.boolean();
  return options;
}

void encode_machine(Writer& writer, const sweep::MachineSpec& machine) {
  writer.str(machine.name);
  encode_config(writer, machine.config);
}

sweep::MachineSpec decode_machine(Reader& reader) {
  sweep::MachineSpec machine;
  machine.name = reader.str();
  machine.config = decode_config(reader);
  return machine;
}

std::string sweep_spec_payload(const SweepSpec& spec) {
  if (spec.options.customize) {
    throw ShardError(
        "a sweep spec with a customize hook cannot be serialized; bake the "
        "customization into per-cell options or shard in-process");
  }
  if (spec.options.cell_filter) {
    throw ShardError(
        "a sweep spec must cover the whole matrix; cell ownership is the "
        "shard layer's job, not the spec's");
  }
  Writer writer;
  writer.u64(spec.circuits.size());
  for (const auto& circuit_spec : spec.circuits) {
    writer.str(circuit_spec.name);
    cache::encode(writer, circuit_spec.circuit);
  }
  writer.u64(spec.techniques.size());
  for (const auto& technique : spec.techniques) writer.str(technique);
  writer.u64(spec.machines.size());
  for (const auto& machine : spec.machines) encode_machine(writer, machine);
  encode_spec_options(writer, spec.options);
  return writer.take();
}

util::Digest128 spec_digest(const SweepSpec& spec) {
  const std::string payload = sweep_spec_payload(spec);
  return util::hash128(payload.data(), payload.size());
}

namespace {

SweepSpec decode_sweep_spec(Reader& reader) {
  SweepSpec spec;
  const std::size_t n_circuits = reader.length(8);
  spec.circuits.reserve(n_circuits);
  for (std::size_t i = 0; i < n_circuits; ++i) {
    sweep::CircuitSpec circuit_spec;
    circuit_spec.name = reader.str();
    circuit_spec.circuit = cache::decode_circuit(reader);
    spec.circuits.push_back(std::move(circuit_spec));
  }
  const std::size_t n_techniques = reader.length(8);
  spec.techniques.reserve(n_techniques);
  for (std::size_t i = 0; i < n_techniques; ++i) {
    spec.techniques.push_back(reader.str());
  }
  const std::size_t n_machines = reader.length(8);
  spec.machines.reserve(n_machines);
  for (std::size_t i = 0; i < n_machines; ++i) {
    spec.machines.push_back(decode_machine(reader));
  }
  spec.options = decode_spec_options(reader);
  return spec;
}

}  // namespace

std::string frame_payload(FileKind kind, const std::string& payload) {
  Writer writer;
  writer.u64(kMagic);
  writer.u32(kSpecVersion);
  writer.u32(static_cast<std::uint32_t>(kind));
  writer.u64(payload.size());
  writer.u64(util::checksum64(payload.data(), payload.size()));
  return writer.take() + payload;
}

std::string unframe_payload(FileKind kind, std::string_view bytes) {
  if (bytes.size() < kHeaderBytes) {
    throw ReadError("shard file truncated before its header");
  }
  Reader reader(bytes);
  if (reader.u64() != kMagic) throw ReadError("not a parallax shard file");
  if (reader.u32() != kSpecVersion) {
    throw ReadError("shard file written by an incompatible version");
  }
  if (reader.u32() != static_cast<std::uint32_t>(kind)) {
    throw ReadError("shard file has the wrong kind for this operation");
  }
  const std::uint64_t size = reader.u64();
  const std::uint64_t checksum = reader.u64();
  if (size != bytes.size() - kHeaderBytes) {
    throw ReadError("shard file payload size mismatch");
  }
  std::string payload(bytes.substr(kHeaderBytes));
  if (util::checksum64(payload.data(), payload.size()) != checksum) {
    throw ReadError("shard file payload checksum mismatch");
  }
  return payload;
}

std::string serialize_sweep_spec(const SweepSpec& spec) {
  return frame_payload(FileKind::kSweepSpec, sweep_spec_payload(spec));
}

SweepSpec parse_sweep_spec(std::string_view bytes) {
  const std::string payload = unframe_payload(FileKind::kSweepSpec, bytes);
  Reader reader(payload);
  SweepSpec spec = decode_sweep_spec(reader);
  reader.expect_end();
  if (spec.circuits.empty() || spec.techniques.empty() ||
      spec.machines.empty()) {
    throw ShardError("sweep spec has an empty matrix axis");
  }
  return spec;
}

std::string serialize_shard_spec(const ShardSpec& spec) {
  if (spec.shard_count == 0 || spec.shard_index >= spec.shard_count) {
    throw ShardError("shard spec has shard_index outside [0, shard_count)");
  }
  Writer writer;
  writer.str(sweep_spec_payload(spec.sweep));
  writer.u32(spec.shard_index);
  writer.u32(spec.shard_count);
  return frame_payload(FileKind::kShardSpec, writer.take());
}

ShardSpec parse_shard_spec(std::string_view bytes) {
  const std::string payload = unframe_payload(FileKind::kShardSpec, bytes);
  Reader reader(payload);
  const std::string sweep_payload = reader.str();
  ShardSpec spec;
  {
    Reader sweep_reader(sweep_payload);
    spec.sweep = decode_sweep_spec(sweep_reader);
    sweep_reader.expect_end();
  }
  spec.shard_index = reader.u32();
  spec.shard_count = reader.u32();
  reader.expect_end();
  if (spec.shard_count == 0 || spec.shard_index >= spec.shard_count) {
    throw ShardError("shard spec has shard_index outside [0, shard_count)");
  }
  if (spec.sweep.circuits.empty() || spec.sweep.techniques.empty() ||
      spec.sweep.machines.empty()) {
    throw ShardError("shard spec has an empty matrix axis");
  }
  return spec;
}

}  // namespace parallax::shard
