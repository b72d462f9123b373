#include "cache/serialize.hpp"

namespace parallax::cache {

void Reader::truncated() { throw ReadError("cache payload truncated"); }

std::string Reader::str() {
  const std::uint64_t size = u64();
  if (size > remaining()) throw ReadError("cache payload string overruns");
  std::string s(data_.data() + pos_, static_cast<std::size_t>(size));
  pos_ += static_cast<std::size_t>(size);
  return s;
}

std::size_t Reader::length(std::size_t min_element_bytes) {
  const std::uint64_t count = u64();
  if (min_element_bytes != 0 &&
      count > remaining() / min_element_bytes) {
    throw ReadError("cache payload length overruns");
  }
  return static_cast<std::size_t>(count);
}

void Reader::expect_end() const {
  if (remaining() != 0) {
    throw ReadError("cache payload has trailing bytes");
  }
}

// --- codecs -------------------------------------------------------------------

namespace {

// The element sizes the decoders pass to Reader::length. scan_cell passes
// the same ones, so both reject the same counts.
constexpr std::size_t kGateBytes = 33;       // type, two qubits, three angles
constexpr std::size_t kLayerMinBytes = 36;
constexpr std::size_t kShotPlanBytes = 24;

/// One gate of a circuit on `n_qubits` qubits. Its checks are the gate
/// rules of every decoder (decode_circuit, scan_cell): Circuit::append's
/// std::out_of_range / std::invalid_argument are outside their ReadError
/// contract, so the qubits are checked here.
circuit::Gate decode_gate(Reader& reader, std::int32_t n_qubits) {
  circuit::Gate gate;
  const std::uint8_t type = reader.u8();
  if (type > static_cast<std::uint8_t>(circuit::GateType::kBarrier)) {
    throw ReadError("cache payload has an unknown gate type");
  }
  gate.type = static_cast<circuit::GateType>(type);
  gate.q[0] = reader.i32();
  gate.q[1] = reader.i32();
  gate.theta = reader.f64();
  gate.phi = reader.f64();
  gate.lambda = reader.f64();
  for (int q = 0; q < gate.arity(); ++q) {
    if (gate.q[q] < 0 || gate.q[q] >= n_qubits) {
      throw ReadError("cache payload has a gate on an out-of-range qubit");
    }
  }
  if (gate.arity() == 2 && gate.q[0] == gate.q[1]) {
    throw ReadError("cache payload has a two-qubit gate on one qubit");
  }
  return gate;
}

/// A physical topology's grid. geom::Grid requires a positive side and
/// pitch; its constructor only asserts them.
geom::Grid decode_grid(Reader& reader) {
  const std::int32_t side = reader.i32();
  const double pitch = reader.f64();
  if (side < 1 || !(pitch > 0.0)) {
    throw ReadError("cache payload has a malformed grid");
  }
  return geom::Grid(side, pitch);
}

}  // namespace

void encode(Writer& writer, const placement::Topology& topology) {
  writer.u64(topology.positions.size());
  for (const auto& point : topology.positions) {
    writer.f64(point.x);
    writer.f64(point.y);
  }
  writer.f64(topology.interaction_radius);
}

placement::Topology decode_topology(Reader& reader) {
  placement::Topology topology;
  const std::size_t count = reader.length(16);
  topology.positions.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    geom::Point point;
    point.x = reader.f64();
    point.y = reader.f64();
    topology.positions.push_back(point);
  }
  topology.interaction_radius = reader.f64();
  return topology;
}

void encode(Writer& writer, const placement::PhysicalTopology& topology) {
  writer.i32(topology.grid.side());
  writer.f64(topology.grid.pitch());
  writer.u64(topology.sites.size());
  for (const auto& site : topology.sites) {
    writer.i32(site.col);
    writer.i32(site.row);
  }
  writer.f64(topology.interaction_radius_um);
  writer.f64(topology.blockade_radius_um);
}

placement::PhysicalTopology decode_physical_topology(Reader& reader) {
  placement::PhysicalTopology topology;
  topology.grid = decode_grid(reader);
  const std::size_t count = reader.length(8);
  topology.sites.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    geom::Cell cell;
    cell.col = reader.i32();
    cell.row = reader.i32();
    topology.sites.push_back(cell);
  }
  topology.interaction_radius_um = reader.f64();
  topology.blockade_radius_um = reader.f64();
  return topology;
}

void encode(Writer& writer, const circuit::Circuit& circuit) {
  writer.i32(circuit.n_qubits());
  writer.str(circuit.name());
  writer.u64(circuit.size());
  for (const auto& gate : circuit.gates()) {
    writer.u8(static_cast<std::uint8_t>(gate.type));
    writer.i32(gate.q[0]);
    writer.i32(gate.q[1]);
    writer.f64(gate.theta);
    writer.f64(gate.phi);
    writer.f64(gate.lambda);
  }
}

circuit::Circuit decode_circuit(Reader& reader) {
  const std::int32_t n_qubits = reader.i32();
  std::string name = reader.str();
  if (n_qubits < 0) throw ReadError("cache payload has a malformed circuit");
  circuit::Circuit circuit(n_qubits, std::move(name));
  const std::size_t count = reader.length(kGateBytes);
  circuit.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    circuit.append(decode_gate(reader, n_qubits));
  }
  return circuit;
}

namespace {

void encode_layer(Writer& writer, const compiler::Layer& layer) {
  writer.u64(layer.gates.size());
  for (const std::size_t gate : layer.gates) writer.u64(gate);
  writer.f64(layer.move_distance_um);
  writer.f64(layer.return_distance_um);
  writer.i32(layer.aod_moves);
  writer.i32(layer.trap_changes);
  writer.f64(layer.duration_us);
  writer.u64(layer.positions.size());
  for (const auto& point : layer.positions) {
    writer.f64(point.x);
    writer.f64(point.y);
  }
}

compiler::Layer decode_layer(Reader& reader) {
  compiler::Layer layer;
  const std::size_t n_gates = reader.length(8);
  layer.gates.reserve(n_gates);
  for (std::size_t i = 0; i < n_gates; ++i) {
    layer.gates.push_back(static_cast<std::size_t>(reader.u64()));
  }
  layer.move_distance_um = reader.f64();
  layer.return_distance_um = reader.f64();
  layer.aod_moves = reader.i32();
  layer.trap_changes = reader.i32();
  layer.duration_us = reader.f64();
  const std::size_t n_positions = reader.length(16);
  layer.positions.reserve(n_positions);
  for (std::size_t i = 0; i < n_positions; ++i) {
    geom::Point point;
    point.x = reader.f64();
    point.y = reader.f64();
    layer.positions.push_back(point);
  }
  return layer;
}

void encode_stats(Writer& writer, const compiler::CompileStats& stats) {
  writer.u64(stats.u3_gates);
  writer.u64(stats.cz_gates);
  writer.u64(stats.swap_gates);
  writer.u64(stats.layers);
  writer.u64(stats.aod_moves);
  writer.u64(stats.trap_changes);
  writer.u64(stats.out_of_range_cz);
  writer.u64(stats.slm_slm_cz);
  writer.f64(stats.max_move_distance_um);
  writer.f64(stats.total_move_distance_um);
}

compiler::CompileStats decode_stats(Reader& reader) {
  compiler::CompileStats stats;
  stats.u3_gates = static_cast<std::size_t>(reader.u64());
  stats.cz_gates = static_cast<std::size_t>(reader.u64());
  stats.swap_gates = static_cast<std::size_t>(reader.u64());
  stats.layers = static_cast<std::size_t>(reader.u64());
  stats.aod_moves = static_cast<std::size_t>(reader.u64());
  stats.trap_changes = static_cast<std::size_t>(reader.u64());
  stats.out_of_range_cz = static_cast<std::size_t>(reader.u64());
  stats.slm_slm_cz = static_cast<std::size_t>(reader.u64());
  stats.max_move_distance_um = reader.f64();
  stats.total_move_distance_um = reader.f64();
  return stats;
}

}  // namespace

void encode(Writer& writer, const compiler::CompileResult& result) {
  writer.str(result.technique);
  encode(writer, result.circuit);
  encode(writer, result.topology);
  writer.u64(result.layers.size());
  for (const auto& layer : result.layers) encode_layer(writer, layer);
  writer.u64(result.in_aod.size());
  for (const std::int8_t flag : result.in_aod) {
    writer.u8(static_cast<std::uint8_t>(flag));
  }
  encode_stats(writer, result.stats);
  writer.f64(result.runtime_us);
  // pass_timings intentionally omitted — see the header contract.
}

compiler::CompileResult decode_result(Reader& reader) {
  compiler::CompileResult result;
  result.technique = reader.str();
  result.circuit = decode_circuit(reader);
  result.topology = decode_physical_topology(reader);
  const std::size_t n_layers = reader.length(kLayerMinBytes);
  result.layers.reserve(n_layers);
  for (std::size_t i = 0; i < n_layers; ++i) {
    result.layers.push_back(decode_layer(reader));
  }
  const std::size_t n_aod = reader.length(1);
  result.in_aod.reserve(n_aod);
  for (std::size_t i = 0; i < n_aod; ++i) {
    result.in_aod.push_back(static_cast<std::int8_t>(reader.u8()));
  }
  result.stats = decode_stats(reader);
  result.runtime_us = reader.f64();
  return result;
}

void encode(Writer& writer, const std::vector<shots::ParallelPlan>& plans) {
  writer.u64(plans.size());
  for (const auto& plan : plans) {
    writer.i32(plan.copies_per_dim);
    writer.i32(plan.copies);
    writer.i64(plan.physical_shots);
    writer.f64(plan.total_execution_time_us);
  }
}

std::vector<shots::ParallelPlan> decode_shot_plans(Reader& reader) {
  std::vector<shots::ParallelPlan> plans;
  const std::size_t n_plans = reader.length(kShotPlanBytes);
  plans.reserve(n_plans);
  for (std::size_t i = 0; i < n_plans; ++i) {
    shots::ParallelPlan plan;
    plan.copies_per_dim = reader.i32();
    plan.copies = reader.i32();
    plan.physical_shots = reader.i64();
    plan.total_execution_time_us = reader.f64();
    plans.push_back(plan);
  }
  return plans;
}

void encode(Writer& writer, const CachedCell& cell) {
  encode(writer, cell.result);
  writer.boolean(cell.has_success_probability);
  writer.f64(cell.success_probability);
  writer.boolean(cell.has_shot_plans);
  encode(writer, cell.shot_plans);
}

CachedCell decode_cell(Reader& reader) {
  CachedCell cell;
  cell.result = decode_result(reader);
  cell.has_success_probability = reader.boolean();
  cell.success_probability = reader.f64();
  cell.has_shot_plans = reader.boolean();
  cell.shot_plans = decode_shot_plans(reader);
  return cell;
}

ScannedCell scan_cell(std::string payload) {
  // decode_cell's reads in decode_cell's order, with its checks; a field
  // nothing checks is skipped.
  Reader reader(payload);
  reader.skip(reader.u64());  // technique
  // The circuit.
  const std::int32_t n_qubits = reader.i32();
  reader.skip(reader.u64());  // name
  if (n_qubits < 0) throw ReadError("cache payload has a malformed circuit");
  const std::size_t n_gates = reader.length(kGateBytes);
  for (std::size_t i = 0; i < n_gates; ++i) {
    (void)decode_gate(reader, n_qubits);
  }
  // The physical topology: grid, sites, interaction and blockade radii.
  (void)decode_grid(reader);
  reader.skip(8 * reader.length(8));
  reader.skip(2 * 8);
  // Layers: gate indices, two distances, two counts, a duration, positions.
  const std::size_t n_layers = reader.length(kLayerMinBytes);
  for (std::size_t i = 0; i < n_layers; ++i) {
    reader.skip(8 * reader.length(8));
    reader.skip(8 + 8 + 4 + 4 + 8);
    reader.skip(16 * reader.length(16));
  }
  reader.skip(reader.length(1));  // in_aod
  reader.skip(10 * 8 + 8);        // stats (8 counts, 2 distances), runtime

  ScannedCell cell;
  cell.result_end = reader.position();
  (void)reader.boolean();  // has_success_probability
  cell.success_probability = reader.f64();
  (void)reader.boolean();  // has_shot_plans
  cell.shot_plans_begin = reader.position();
  reader.skip(kShotPlanBytes * reader.length(kShotPlanBytes));
  reader.expect_end();
  cell.payload = std::move(payload);
  return cell;
}

std::string serialize_topology(const placement::Topology& topology) {
  Writer writer;
  encode(writer, topology);
  return writer.take();
}

placement::Topology parse_topology(std::string_view bytes) {
  Reader reader(bytes);
  placement::Topology topology = decode_topology(reader);
  reader.expect_end();
  return topology;
}

std::string serialize_result(const compiler::CompileResult& result) {
  Writer writer;
  encode(writer, result);
  return writer.take();
}

compiler::CompileResult parse_result(std::string_view bytes) {
  Reader reader(bytes);
  compiler::CompileResult result = decode_result(reader);
  reader.expect_end();
  return result;
}

std::string serialize_cell(const CachedCell& cell) {
  Writer writer;
  encode(writer, cell);
  return writer.take();
}

CachedCell parse_cell(std::string_view bytes) {
  Reader reader(bytes);
  CachedCell cell = decode_cell(reader);
  reader.expect_end();
  return cell;
}

}  // namespace parallax::cache
