#include "cache/serialize.hpp"

#include "cache/archive.hpp"

namespace parallax::cache {

void Reader::truncated() { throw ReadError("cache payload truncated"); }

std::string_view Reader::str_view() {
  const std::uint64_t size = u64();
  if (size > remaining()) throw ReadError("cache payload string overruns");
  const std::string_view s = data_.substr(pos_, static_cast<std::size_t>(size));
  pos_ += static_cast<std::size_t>(size);
  return s;
}

void Reader::overruns() { throw ReadError("cache payload length overruns"); }

void Reader::expect_end() const {
  if (remaining() != 0) {
    throw ReadError("cache payload has trailing bytes");
  }
}

// --- codecs -------------------------------------------------------------------

namespace {

template <typename T>
void write(Writer& writer, const T& value) {
  FieldWriter ar(writer);
  fields(ar, value);
}

template <typename T>
std::string write(const T& value) {
  Writer writer;
  write(writer, value);
  return writer.take();
}

template <typename T>
T read(Reader& reader) {
  T value;
  FieldReader ar(reader);
  fields(ar, value);
  return value;
}

/// A whole buffer holding exactly one `T`.
template <typename T>
T read(std::string_view bytes) {
  Reader reader(bytes);
  T value = read<T>(reader);
  reader.expect_end();
  return value;
}

}  // namespace

void encode(Writer& writer, const circuit::Circuit& circuit) {
  write(writer, circuit);
}

void encode(Writer& writer, const CachedCell& cell) { write(writer, cell); }

CachedCell decode_cell(Reader& reader) { return read<CachedCell>(reader); }

ScannedCell scan_cell(std::shared_ptr<const std::string> payload) {
  Reader reader(*payload);
  FieldScanner ar(reader);
  CachedCell scratch;
  fields(ar, scratch);
  reader.expect_end();
  ScannedCell cell;
  cell.result_end = ar.span(Section::kResult).second;
  cell.shot_plans_begin = ar.span(Section::kShotPlans).first;
  cell.success_probability = scratch.success_probability;
  cell.payload = std::move(payload);
  return cell;
}

std::string serialize_topology(const placement::Topology& topology) {
  return write(topology);
}

placement::Topology parse_topology(std::string_view bytes) {
  return read<placement::Topology>(bytes);
}

std::string serialize_result(const compiler::CompileResult& result) {
  return write(result);
}

compiler::CompileResult parse_result(std::string_view bytes) {
  return read<compiler::CompileResult>(bytes);
}

std::string serialize_cell(const CachedCell& cell) { return write(cell); }

CachedCell parse_cell(std::string_view bytes) {
  return read<CachedCell>(bytes);
}

}  // namespace parallax::cache
