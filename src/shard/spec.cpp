#include "shard/spec.hpp"

#include "cache/option_fields.hpp"

namespace parallax::shard {

namespace {

using cache::Reader;
using cache::ReadError;
using cache::Writer;

constexpr std::uint64_t kMagic = 0x3144524148535850ULL;  // "PXSHARD1" LE
constexpr std::size_t kHeaderBytes = 8 + 4 + 4 + 8 + 8;

/// The deterministic subset of sweep::Options; the runtime-only fields
/// (threads, cache, filter, provenance, hooks, pool) never travel.
template <typename Archive, cache::MaybeConst<sweep::Options> O>
void fields(Archive& ar, O& o) {
  cache::fields(ar, o.compile);
  ar.boolean(o.compute_success_probability);
  cache::fields(ar, o.noise);
  ar.optional(o.shots, [&](auto& shots) { cache::fields(ar, shots); });
}

template <typename Archive, cache::MaybeConst<sweep::MachineSpec> M>
void fields(Archive& ar, M& machine) {
  ar.label(machine.name);
  cache::fields(ar, machine.config);
}

template <typename Archive, cache::MaybeConst<SweepSpec> S>
void fields(Archive& ar, S& spec) {
  ar.items(spec.circuits, 8, [&](auto& circuit) {
    ar.str(circuit.name);
    cache::fields(ar, circuit.circuit);
  });
  ar.items(spec.techniques, 8, [&](auto& technique) { ar.str(technique); });
  ar.items(spec.machines, 8, [&](auto& machine) { fields(ar, machine); });
  fields(ar, spec.options);
}

SweepSpec decode_sweep_spec(Reader& reader) {
  SweepSpec spec;
  cache::FieldReader ar(reader, "sweep spec");
  fields(ar, spec);
  return spec;
}

}  // namespace

std::string sweep_spec_payload(const SweepSpec& spec) {
  if (spec.options.cell_filter) {
    throw ShardError(
        "a sweep spec must cover the whole matrix; cell ownership is the "
        "shard layer's job, not the spec's");
  }
  Writer writer;
  cache::FieldWriter ar(writer);
  fields(ar, spec);
  return writer.take();
}

util::Digest128 spec_digest(const SweepSpec& spec) {
  const std::string payload = sweep_spec_payload(spec);
  return util::hash128(payload.data(), payload.size());
}

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
