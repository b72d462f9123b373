// The archives that walk the field lists: FieldWriter encodes (a payload, a
// spec or a cache key), FieldReader decodes, and FieldScanner makes every
// check the reader makes while building nothing. The lists live beside
// their structs' codecs: payloads in cache/serialize.hpp, options in
// cache/option_fields.hpp, cells and shard runs in shard/shard.cpp, sweep
// specs in shard/spec.cpp and serve frames in serve/protocol.cpp.
//
// A list visits its fields in wire order through these primitives:
//   - fixed-width fields: boolean, i8, i32, u32, i64, u64, f64, enum_u8 and
//     enum_i32 (an enum the reader accepts only if cache::known says so);
//   - str(s): a payload string, carried everywhere;
//   - label(name): a display name; specs carry it, keys skip it;
//   - items(v, min_bytes, body): a u64 count, then body(element) for each;
//     the reader checks the count against min_bytes per element;
//   - run(v, width, body): items of fixed-width elements, `width` bytes
//     each, that no check reads; the scanner steps over them in one skip,
//     and the reader copies them in one memcpy when an element's bytes in
//     memory are its wire form (kWireLayout);
//   - slice(v, begin, end, width, body): the run v[begin, end) of a vector
//     several owners share (a result's layer_gates): on the wire a run of
//     its own; the reader appends it to v and sets [begin, end) to where it
//     landed;
//   - record(width, body): fixed-width fields, `width` bytes in all, that
//     body(r) visits through r's enum_u8, i32 and f64; the reader and the
//     scanner check the width once and load each field from a pointer, the
//     writer writes them one by one;
//   - topology(t) and optional(value, body);
//   - keyed_when(non_default, body): a group legacy cache keys never saw.
//     Specs always carry it; keys feed it only when non_default, so every
//     key written before the group existed stays byte-identical;
//   - expect(ok, what): a check that the reader and the scanner enforce;
//   - section(which, body): fields the scanner records the byte span of.
#pragma once

#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "cache/fingerprint.hpp"
#include "cache/serialize.hpp"
#include "noise/model.hpp"

namespace parallax::cache {

/// The enum values a decoder accepts.
[[nodiscard]] constexpr bool known(placement::ProposalMode mode) noexcept {
  return mode == placement::ProposalMode::kFullVector ||
         mode == placement::ProposalMode::kBatched;
}
[[nodiscard]] constexpr bool known(noise::FidelityModel model) noexcept {
  return model == noise::FidelityModel::kClosedForm ||
         model == noise::FidelityModel::kSimulated;
}
[[nodiscard]] constexpr bool known(circuit::GateType type) noexcept {
  return type <= circuit::GateType::kBarrier;
}

/// True when a T's object representation on this host is its wire form
/// (little-endian integers and IEEE doubles, in field order), so a run of
/// Ts decodes with one memcpy. Other hosts decode element by element.
template <typename T>
inline constexpr bool kWireLayout =
    std::endian::native == std::endian::little && std::is_integral_v<T> &&
    !std::is_same_v<T, bool>;
template <>
inline constexpr bool kWireLayout<geom::Point> =
    std::endian::native == std::endian::little &&
    std::numeric_limits<double>::is_iec559;
static_assert(std::is_trivially_copyable_v<geom::Point> &&
                  std::is_standard_layout_v<geom::Point> &&
                  sizeof(geom::Point) == kPointBytes &&
                  offsetof(geom::Point, x) == 0 &&
                  offsetof(geom::Point, y) == 8,
              "geom::Point's layout is its wire form: x then y");

/// The writing archive: into a Writer, a payload or a spec (every field);
/// into a Fingerprinter, a cache key (no labels; a legacy-invisible group
/// only when non-default).
template <typename Sink>
class FieldWriter {
 public:
  explicit FieldWriter(Sink& sink) noexcept : sink_(sink) {}

  void boolean(bool v) { sink_.boolean(v); }
  void i8(std::int8_t v) { sink_.u8(static_cast<std::uint8_t>(v)); }
  void i32(std::int32_t v) { sink_.i32(v); }
  void u32(std::uint32_t v) { sink_.u32(v); }
  void i64(std::int64_t v) { sink_.i64(v); }
  void u64(std::uint64_t v) { sink_.u64(v); }
  void f64(double v) { sink_.f64(v); }
  template <typename Enum>
  void enum_u8(Enum v) { sink_.u8(static_cast<std::uint8_t>(v)); }
  template <typename Enum>
  void enum_i32(Enum v) { sink_.i32(static_cast<std::int32_t>(v)); }
  void str(std::string_view s) { sink_.str(s); }
  void label(std::string_view name) {
    if constexpr (!kKey) sink_.str(name);
  }
  template <typename T, typename Body>
  void items(const std::vector<T>& values, std::size_t, Body body) {
    sink_.u64(values.size());
    for (const T& value : values) body(value);
  }
  template <typename T, typename Body>
  void run(const std::vector<T>& values, std::size_t width, Body body) {
    items(values, width, body);
  }
  template <typename T, typename Body>
  void slice(const std::vector<T>& values, std::size_t begin, std::size_t end,
             std::size_t, Body body) {
    const std::span<const T> run =
        std::span(values).subspan(begin, end - begin);
    sink_.u64(run.size());
    for (const T& value : run) body(value);
  }
  template <typename Body>
  void record(std::size_t, Body body) {
    body(*this);
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
  template <typename Body>
  void section(Section, Body body) {
    body();
  }

 private:
  static constexpr bool kKey = std::is_same_v<Sink, Fingerprinter>;
  Sink& sink_;
};

/// The reading archive: every field back in wire order, with each count
/// bounded, each `expect` and every enum value checked. Errors are
/// ReadErrors that name `subject`.
class FieldReader {
 public:
  explicit FieldReader(Reader& reader,
                       const char* subject = "cache payload") noexcept
      : reader_(reader), subject_(subject) {}

  void boolean(bool& v) { v = reader_.boolean(); }
  void i8(std::int8_t& v) { v = static_cast<std::int8_t>(reader_.u8()); }
  void i32(std::int32_t& v) { v = reader_.i32(); }
  void u32(std::uint32_t& v) { v = reader_.u32(); }
  void i64(std::int64_t& v) { v = reader_.i64(); }
  void u64(std::uint64_t& v) { v = reader_.u64(); }
  void f64(double& v) { v = reader_.f64(); }
  template <typename Enum>
  void enum_u8(Enum& v) { v = known_enum<Enum>(reader_.u8()); }
  template <typename Enum>
  void enum_i32(Enum& v) { v = known_enum<Enum>(reader_.i32()); }
  void str(std::string& s) { s = reader_.str(); }
  void label(std::string& name) { name = reader_.str(); }
  template <typename T, typename Body>
  void items(std::vector<T>& values, std::size_t min_bytes, Body body) {
    const std::size_t n = reader_.length(min_bytes);
    values.reserve(n);
    for (std::size_t i = 0; i < n; ++i) body(values.emplace_back());
  }
  template <typename T, typename Body>
  void run(std::vector<T>& values, std::size_t width, Body body) {
    if constexpr (kWireLayout<T>) {
      if (width == sizeof(T)) {
        const std::size_t n = reader_.length(width);
        const std::size_t old = values.size();
        values.resize(old + n);
        if (n != 0) {
          std::memcpy(values.data() + old, reader_.take(n * width),
                      n * width);
        }
        return;
      }
    }
    items(values, width, body);
  }
  template <typename T, typename Body>
  void slice(std::vector<T>& values, std::size_t& begin, std::size_t& end,
             std::size_t width, Body body) {
    begin = values.size();
    run(values, width, body);
    end = values.size();
  }

  /// The fields of one record, loaded from the bytes the reader checked.
  class Record {
   public:
    Record(FieldReader& owner, const unsigned char* at) noexcept
        : owner_(owner), at_(at) {}

    void i32(std::int32_t& v) {
      v = static_cast<std::int32_t>(load<std::uint32_t>());
    }
    void f64(double& v) { v = std::bit_cast<double>(load<std::uint64_t>()); }
    template <typename Enum>
    void enum_u8(Enum& v) {
      v = owner_.known_enum<Enum>(load<std::uint8_t>());
    }

    [[nodiscard]] const unsigned char* at() const noexcept { return at_; }

   private:
    template <typename Unsigned>
    Unsigned load() noexcept {
      const auto v = Reader::load_le<Unsigned>(at_);
      at_ += sizeof(Unsigned);
      return v;
    }

    FieldReader& owner_;
    const unsigned char* at_;
  };
  template <typename Body>
  void record(std::size_t width, Body body) {
    const unsigned char* begin = reader_.take(width);
    Record loaded(*this, begin);
    body(loaded);
    assert(loaded.at() == begin + width && "a record's fields fill its width");
  }

  void topology(placement::Topology& value) {
    value = parse_topology(reader_.str_view());
  }
  template <typename T, typename Body>
  void optional(std::optional<T>& value, Body body) {
    value.reset();
    if (reader_.boolean()) body(value.emplace());
  }
  template <typename Body>
  void keyed_when(bool, Body body) {
    body();
  }
  void expect(bool ok, const char* what) {
    if (!ok) throw ReadError(std::string(subject_) + " has " + what);
  }
  template <typename Body>
  void section(Section, Body body) {
    body();
  }

 protected:
  Reader& reader_;

 private:
  /// The wire value as an enum, unless it does not fit the enum or names a
  /// value cache::known refuses.
  template <typename Enum, typename Wire>
  Enum known_enum(Wire wire) {
    const auto value = static_cast<Enum>(wire);
    if (static_cast<Wire>(value) != wire || !cache::known(value)) {
      expect(false, "an unknown enum value");
    }
    return value;
  }

  const char* subject_;
};

/// The checking archive: the reader's checks on every field, but strings
/// and runs are stepped over, and the elements of checked containers (and
/// so their records) are read into one scratch element, so a walk
/// allocates nothing.
class FieldScanner : public FieldReader {
 public:
  using Span = std::pair<std::size_t, std::size_t>;
  using FieldReader::FieldReader;

  void str(std::string&) { (void)reader_.str_view(); }
  template <typename T, typename Body>
  void items(std::vector<T>&, std::size_t min_bytes, Body body) {
    T scratch;
    for (std::size_t n = reader_.length(min_bytes); n > 0; --n) body(scratch);
  }
  template <typename T, typename Body>
  void run(std::vector<T>&, std::size_t width, Body) {
    (void)reader_.take(width * reader_.length(width));
  }
  template <typename T, typename Body>
  void slice(std::vector<T>& values, std::size_t&, std::size_t&,
             std::size_t width, Body body) {
    run(values, width, body);
  }
  template <typename Body>
  void section(Section which, Body body) {
    const std::size_t begin = reader_.position();
    body();
    spans_[static_cast<std::size_t>(which)] = {begin, reader_.position()};
  }

  /// The [begin, end) byte offsets of the last `which` section walked.
  [[nodiscard]] Span span(Section which) const noexcept {
    return spans_[static_cast<std::size_t>(which)];
  }

 private:
  std::array<Span, 2> spans_{};
};

}  // namespace parallax::cache
