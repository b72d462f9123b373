// Validator tests: clean schedules pass; corrupted schedules are caught on
// the exact invariant that was broken.
#include <gtest/gtest.h>

#include "bench_circuits/registry.hpp"
#include "circuit/transpile.hpp"
#include "hardware/config.hpp"
#include "parallax/compiler.hpp"
#include "parallax/validate.hpp"

namespace px = parallax::compiler;
namespace ph = parallax::hardware;

namespace {
px::CompileResult compiled_qaoa() {
  parallax::bench_circuits::GenOptions gen;
  gen.seed = 11;
  const auto input = parallax::bench_circuits::make_qaoa(8, 2, gen);
  px::CompilerOptions options;
  options.scheduler.record_positions = true;
  options.seed = 11;
  return px::compile(input, ph::HardwareConfig::quera_aquila_256(), options);
}

bool has_violation(const px::ValidationReport& report, const char* prefix) {
  for (const auto& v : report.violations) {
    if (v.rfind(prefix, 0) == 0) return true;
  }
  return false;
}
}  // namespace

TEST(Validate, CleanScheduleIsValid) {
  const auto result = compiled_qaoa();
  const auto report = px::validate_schedule(
      result, ph::HardwareConfig::quera_aquila_256());
  EXPECT_TRUE(report.ok) << (report.violations.empty()
                                 ? ""
                                 : report.violations.front());
}

TEST(Validate, DetectsSwapGates) {
  auto result = compiled_qaoa();
  auto gates = result.circuit.gates();
  gates.push_back(parallax::circuit::Gate::swap(0, 1));
  result.circuit.replace_gates(std::move(gates));
  const auto report = px::validate_schedule(
      result, ph::HardwareConfig::quera_aquila_256());
  EXPECT_FALSE(report.ok);
  EXPECT_TRUE(has_violation(report, "L1"));
}

TEST(Validate, SwapsAllowedForBaselines) {
  auto result = compiled_qaoa();
  auto gates = result.circuit.gates();
  gates.push_back(parallax::circuit::Gate::swap(0, 1));
  result.circuit.replace_gates(std::move(gates));
  const auto report = px::validate_schedule(
      result, ph::HardwareConfig::quera_aquila_256(),
      /*expect_zero_swaps=*/false);
  // L1 passes, but the appended swap was never scheduled: L2 catches it.
  EXPECT_FALSE(has_violation(report, "L1"));
  EXPECT_TRUE(has_violation(report, "L2"));
}

TEST(Validate, DetectsDoubleScheduling) {
  auto result = compiled_qaoa();
  ASSERT_FALSE(result.layers.empty());
  result.layers.back().gates.push_back(result.layers.front().gates.front());
  const auto report = px::validate_schedule(
      result, ph::HardwareConfig::quera_aquila_256());
  EXPECT_TRUE(has_violation(report, "L2"));
}

TEST(Validate, DetectsMissingGate) {
  auto result = compiled_qaoa();
  for (auto& layer : result.layers) {
    if (!layer.gates.empty()) {
      layer.gates.pop_back();
      break;
    }
  }
  const auto report = px::validate_schedule(
      result, ph::HardwareConfig::quera_aquila_256());
  EXPECT_TRUE(has_violation(report, "L2"));
}

TEST(Validate, DetectsQubitReuseInLayer) {
  auto result = compiled_qaoa();
  // Duplicate a gate within one layer: both L2 (scheduled twice) and L3
  // (same qubit twice in the layer) must fire.
  for (auto& layer : result.layers) {
    if (!layer.gates.empty()) {
      layer.gates.push_back(layer.gates.front());
      break;
    }
  }
  const auto report = px::validate_schedule(
      result, ph::HardwareConfig::quera_aquila_256());
  EXPECT_TRUE(has_violation(report, "L3"));
}

TEST(Validate, DetectsOrderViolation) {
  auto result = compiled_qaoa();
  // Swap the gate lists of the first two nonempty layers touching a shared
  // qubit — with overwhelming likelihood this breaks per-qubit order.
  std::size_t first = result.layers.size(), second = result.layers.size();
  for (std::size_t i = 0; i < result.layers.size(); ++i) {
    if (result.layers[i].gates.empty()) continue;
    if (first == result.layers.size()) {
      first = i;
    } else {
      second = i;
      break;
    }
  }
  ASSERT_LT(second, result.layers.size());
  std::swap(result.layers[first].gates, result.layers[second].gates);
  const auto report = px::validate_schedule(
      result, ph::HardwareConfig::quera_aquila_256());
  EXPECT_FALSE(report.ok);
}

TEST(Validate, DetectsOutOfRangeCz) {
  auto result = compiled_qaoa();
  // Teleport one CZ's atom far away in the recorded snapshot.
  for (auto& layer : result.layers) {
    if (layer.positions.empty() || layer.trap_changes != 0) continue;
    for (const auto gi : layer.gates) {
      const auto& g = result.circuit.gate(gi);
      if (g.type != parallax::circuit::GateType::kCZ) continue;
      if (!result.in_aod[static_cast<std::size_t>(g.q[0])] &&
          !result.in_aod[static_cast<std::size_t>(g.q[1])]) {
        continue;  // P1 skips static-static pairs
      }
      layer.positions[static_cast<std::size_t>(g.q[0])] = {1e6, 1e6};
      const auto report = px::validate_schedule(
          result, ph::HardwareConfig::quera_aquila_256());
      EXPECT_TRUE(has_violation(report, "P1"));
      return;
    }
  }
  GTEST_SKIP() << "no mobile CZ found in this schedule";
}

TEST(Validate, DetectsSeparationViolation) {
  auto result = compiled_qaoa();
  for (auto& layer : result.layers) {
    if (layer.positions.size() >= 2) {
      layer.positions[1] = layer.positions[0];
      break;
    }
  }
  const auto report = px::validate_schedule(
      result, ph::HardwareConfig::quera_aquila_256());
  EXPECT_TRUE(has_violation(report, "P3"));
}

TEST(Validate, OutOfRangeGateIndexIsReportedNotRead) {
  // A 2-qubit circuit whose one layer names gate 5. L2 reports the index,
  // and the later checks must not read it: circuit.gate(5) is out of
  // bounds (an abort under _GLIBCXX_ASSERTIONS).
  px::CompileResult result;
  result.circuit = parallax::circuit::Circuit(2, "two");
  result.circuit.cz(0, 1);
  result.in_aod = {1, 0};
  px::Layer layer;
  layer.gates = {0, 5};
  layer.positions = {{0.0, 0.0}, {5.0, 0.0}};
  result.layers = {layer};
  const auto report = px::validate_schedule(
      result, ph::HardwareConfig::quera_aquila_256());
  EXPECT_TRUE(has_violation(report, "L2"));
}

TEST(Validate, SnapshotAndFlagSizesAreReportedNotRead) {
  // One CZ on two qubits, but the layer records one position and in_aod
  // holds no flag: both are reported, and neither is indexed by qubit.
  px::CompileResult result;
  result.circuit = parallax::circuit::Circuit(2, "two");
  result.circuit.cz(0, 1);
  px::Layer short_snapshot;
  short_snapshot.gates = {0};
  short_snapshot.positions = {{0.0, 0.0}};
  result.layers = {short_snapshot};
  auto report = px::validate_schedule(result,
                                      ph::HardwareConfig::quera_aquila_256());
  EXPECT_TRUE(has_violation(report, "P1: layer 0 records 1 positions"));

  result.layers[0].positions = {{0.0, 0.0}, {5.0, 0.0}};
  report = px::validate_schedule(result,
                                 ph::HardwareConfig::quera_aquila_256());
  EXPECT_TRUE(has_violation(report, "P1: in_aod holds 0 flags"));
}
