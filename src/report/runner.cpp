#include "report/runner.hpp"

#include <utility>

namespace parallax::report {

RunSpec in_process(std::size_t n_threads,
                   std::shared_ptr<cache::CompilationCache> cache) {
  return [n_threads, cache = std::move(cache)](const shard::SweepSpec& spec) {
    sweep::Options options = spec.options;
    options.n_threads = n_threads;
    options.cache = cache;
    return sweep::run(spec.circuits, spec.techniques, spec.machines, options);
  };
}

RunSpec over_socket(serve::Client& client) {
  return [&client](const shard::SweepSpec& spec) {
    serve::ClientOutcome outcome = client.run(spec);
    if (!outcome.summary.ok()) {
      throw ReportError("serve request failed: " + outcome.summary.error);
    }
    return std::move(outcome.result);
  };
}

}  // namespace parallax::report
