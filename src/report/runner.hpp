// The two executors `parallax_cli bench` drives artifact sweeps through,
// both as a RunSpec (report/artifact.hpp):
//   * in_process  — sweep::run in this process, optionally against a
//     persistent cache: `bench` without --socket.
//   * over_socket — a remote `parallax serve --socket` session over a
//     serve::Client connection: the session state lives in the server
//     (`bench --socket PATH`).
// Both return the same flat circuit-major sweep::Result (byte-identical
// under shard::canonical_bytes), which is what the differential report test
// asserts.
#pragma once

#include <cstddef>
#include <memory>

#include "cache/cache.hpp"
#include "report/artifact.hpp"
#include "serve/client.hpp"

namespace parallax::report {

/// Runs each spec through sweep::run on `n_threads` workers (0 selects
/// hardware concurrency) against `cache`, shared by every sweep of the run;
/// a null cache keeps pure in-run memoization.
[[nodiscard]] RunSpec in_process(
    std::size_t n_threads, std::shared_ptr<cache::CompilationCache> cache);

/// Runs each spec as one request on `client`, which must outlive the
/// returned executor. A failed request throws ReportError.
[[nodiscard]] RunSpec over_socket(serve::Client& client);

}  // namespace parallax::report
