#include "trace.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>
#include <utility>

#include "pipeline/passes.hpp"

namespace perfbench {

namespace passes = parallax::pipeline::passes;
using parallax::pipeline::CompileContext;
using parallax::pipeline::CompileOptions;
using parallax::pipeline::Pass;
using parallax::pipeline::Pipeline;

void Tracer::record(Span span) {
  const std::lock_guard lock(mutex_);
  spans_.push_back(std::move(span));
}

std::vector<Span> Tracer::take() {
  const std::lock_guard lock(mutex_);
  return std::exchange(spans_, {});
}

std::vector<double> self_seconds(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<Nanos, Nanos>>> children(spans.size());
  for (const Span& span : spans) {
    if (span.parent < 0) continue;
    const Span& parent = spans[static_cast<std::size_t>(span.parent)];
    const Nanos start = std::max(span.start, parent.start);
    const Nanos end = std::min(span.end, parent.end);
    if (end > start) {
      children[static_cast<std::size_t>(span.parent)].emplace_back(start, end);
    }
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& intervals = children[i];
    std::sort(intervals.begin(), intervals.end());
    Nanos covered = 0;
    Nanos reach = spans[i].start;
    for (const auto& [start, end] : intervals) {
      const Nanos from = std::max(start, reach);
      if (end > from) {
        covered += end - from;
        reach = end;
      }
    }
    self[i] = seconds_between(0, spans[i].end - spans[i].start - covered);
  }
  return self;
}

std::string pass_metric(std::string_view pass) {
  static const std::map<std::string, std::string, std::less<>> kMetrics = {
      {"transpile", "circuit.transpile_s"},
      {"graphine-placement", "placement.graphine_s"},
      {"discretize", "placement.discretize_s"},
      {"eldi-placement", "baselines.eldi_placement_s"},
      {"swap-route", "baselines.swap_route_s"},
      {"static-schedule", "baselines.static_schedule_s"},
      {"identity-placement", "baselines.identity_placement_s"},
      {"aod-selection", "parallax.aod_selection_s"},
      {"schedule", "parallax.schedule_s"},
  };
  const auto it = kMetrics.find(pass);
  if (it == kMetrics.end()) {
    throw std::invalid_argument("no layer metric for pass '" +
                                std::string(pass) + "'");
  }
  return it->second;
}

std::string cell_label(std::string_view circuit, std::string_view technique,
                       std::string_view machine) {
  std::string label(circuit);
  label += '|';
  label += technique;
  label += '|';
  label += machine;
  return label;
}

namespace {

Pass make_pass(const std::string& name) {
  static const std::map<std::string, Pass (*)()> kPasses = {
      {"transpile", &passes::transpile},
      {"graphine-placement", &passes::graphine_placement},
      {"eldi-placement", &passes::eldi_placement},
      {"identity-placement", &passes::identity_placement},
      {"discretize", &passes::discretize},
      {"aod-selection", &passes::aod_selection},
      {"schedule", &passes::schedule},
      {"swap-route", &passes::swap_route},
      {"static-schedule", &passes::static_schedule},
  };
  const auto it = kPasses.find(name);
  if (it == kPasses.end()) {
    throw std::invalid_argument("no pipeline::passes entry for pass '" +
                                name + "'");
  }
  return it->second();
}

Pass traced(Pass inner, const std::shared_ptr<Tracer>& tracer) {
  std::string name = inner.name();
  std::string metric = pass_metric(name);
  return Pass(std::move(name),
              [inner = std::move(inner), metric = std::move(metric),
               tracer](CompileContext& context) {
                const Nanos start = now_ns();
                inner.run(context);
                tracer->record({metric, start, now_ns(),
                                cell_label(context.input.name(),
                                           context.result.technique,
                                           context.config.name),
                                -1});
              });
}

}  // namespace

parallax::technique::Registry tracing_registry(
    const parallax::technique::Registry& base,
    const std::shared_ptr<Tracer>& tracer) {
  parallax::technique::Registry registry;
  for (const std::string& name : base.names()) {
    const auto& info = base.info(name);
    registry.add(
        info.name, info.description,
        [factory = info.factory, tracer](const CompileOptions& options) {
          const Pipeline plain = factory(options);
          Pipeline wrapped(plain.technique());
          for (const std::string& pass : plain.pass_names()) {
            wrapped.add(traced(make_pass(pass), tracer));
          }
          return wrapped;
        },
        info.tune);
  }
  return registry;
}

}  // namespace perfbench
