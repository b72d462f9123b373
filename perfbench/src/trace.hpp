// In-memory span tracing from outside the library. Spans are recorded at the
// boundaries the benchmark can see — its own calls into each layer, and every
// pipeline pass through a registry whose passes are wrapped in a recorder —
// kept in memory, and reduced to per-layer times when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "technique/registry.hpp"

namespace perfbench {

using Nanos = std::int64_t;

/// Monotonic clock reading in nanoseconds.
[[nodiscard]] inline Nanos now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[nodiscard]] inline double seconds_between(Nanos start, Nanos end) {
  return static_cast<double>(end - start) * 1e-9;
}

struct Span {
  /// The layer metric the span's duration counts toward (e.g.
  /// "parallax.schedule_s"), or a structural name ("cell", "sweep.run").
  std::string name;
  Nanos start = 0;
  Nanos end = 0;
  /// "circuit|technique|machine" of the sweep cell a pass span ran for.
  std::string cell;
  /// Index of the enclosing span in the same list; -1 at top level.
  int parent = -1;

  [[nodiscard]] double seconds() const { return seconds_between(start, end); }
};

/// Thread-safe span sink.
class Tracer {
 public:
  void record(Span span);
  /// Moves every recorded span out, leaving the tracer empty.
  [[nodiscard]] std::vector<Span> take();

 private:
  std::mutex mutex_;
  std::vector<Span> spans_;
};

/// Per span: its duration minus the part of its interval covered by its
/// direct children (children clipped to the parent, overlaps merged).
[[nodiscard]] std::vector<double> self_seconds(const std::vector<Span>& spans);

/// The layer metric a pipeline pass's time counts toward.
[[nodiscard]] std::string pass_metric(std::string_view pass);

/// "circuit|technique|machine": the label pass spans and cells share.
[[nodiscard]] std::string cell_label(std::string_view circuit,
                                     std::string_view technique,
                                     std::string_view machine);

/// `base` rebuilt technique by technique: the same names, tune hooks and
/// pass lists (from pipeline::passes), with every pass wrapped in a span
/// recorder. Pass names and tuned options are unchanged, so memo and cache
/// keys are too.
[[nodiscard]] parallax::technique::Registry tracing_registry(
    const parallax::technique::Registry& base,
    const std::shared_ptr<Tracer>& tracer);

}  // namespace perfbench
