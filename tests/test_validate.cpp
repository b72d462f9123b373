// Validator tests: clean schedules pass; corrupted schedules are caught on
// the exact invariant that was broken.
#include <gtest/gtest.h>

#include <vector>

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

using GateLists = std::vector<std::vector<std::size_t>>;

/// Each layer's gates as a list of its own, for a test that edits them.
GateLists gate_lists(const px::CompileResult& result) {
  GateLists lists;
  for (const auto& layer : result.layers) {
    const auto gates = result.gates(layer);
    lists.emplace_back(gates.begin(), gates.end());
  }
  return lists;
}

/// Lays one list per layer out as `result`'s layer_gates, in layer order.
void set_gate_lists(px::CompileResult& result, const GateLists& lists) {
  result.layer_gates.clear();
  for (std::size_t li = 0; li < lists.size(); ++li) {
    result.layers[li].gates_begin = result.layer_gates.size();
    result.layer_gates.insert(result.layer_gates.end(), lists[li].begin(),
                              lists[li].end());
    result.layers[li].gates_end = result.layer_gates.size();
  }
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
  GateLists lists = gate_lists(result);
  lists.back().push_back(lists.front().front());
  set_gate_lists(result, lists);
  const auto report = px::validate_schedule(
      result, ph::HardwareConfig::quera_aquila_256());
  EXPECT_TRUE(has_violation(report, "L2"));
}

TEST(Validate, DetectsMissingGate) {
  auto result = compiled_qaoa();
  GateLists lists = gate_lists(result);
  for (auto& gates : lists) {
    if (!gates.empty()) {
      gates.pop_back();
      break;
    }
  }
  set_gate_lists(result, lists);
  const auto report = px::validate_schedule(
      result, ph::HardwareConfig::quera_aquila_256());
  EXPECT_TRUE(has_violation(report, "L2"));
}

TEST(Validate, DetectsQubitReuseInLayer) {
  auto result = compiled_qaoa();
  // Duplicate a gate within one layer: both L2 (scheduled twice) and L3
  // (same qubit twice in the layer) must fire.
  GateLists lists = gate_lists(result);
  for (auto& gates : lists) {
    if (!gates.empty()) {
      gates.push_back(gates.front());
      break;
    }
  }
  set_gate_lists(result, lists);
  const auto report = px::validate_schedule(
      result, ph::HardwareConfig::quera_aquila_256());
  EXPECT_TRUE(has_violation(report, "L3"));
}

TEST(Validate, DetectsOrderViolation) {
  auto result = compiled_qaoa();
  // Swap the gate lists of the first two nonempty layers touching a shared
  // qubit — with overwhelming likelihood this breaks per-qubit order.
  GateLists lists = gate_lists(result);
  std::size_t first = lists.size(), second = lists.size();
  for (std::size_t i = 0; i < lists.size(); ++i) {
    if (lists[i].empty()) continue;
    if (first == lists.size()) {
      first = i;
    } else {
      second = i;
      break;
    }
  }
  ASSERT_LT(second, lists.size());
  std::swap(lists[first], lists[second]);
  set_gate_lists(result, lists);
  const auto report = px::validate_schedule(
      result, ph::HardwareConfig::quera_aquila_256());
  EXPECT_FALSE(report.ok);
}

TEST(Validate, DetectsOutOfRangeCz) {
  auto result = compiled_qaoa();
  // Teleport one CZ's atom far away in the recorded snapshot.
  for (auto& layer : result.layers) {
    if (layer.positions.empty() || layer.trap_changes != 0) continue;
    for (const auto gi : result.gates(layer)) {
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
  layer.positions = {{0.0, 0.0}, {5.0, 0.0}};
  result.layers = {layer};
  set_gate_lists(result, {{0, 5}});
  const auto report = px::validate_schedule(
      result, ph::HardwareConfig::quera_aquila_256());
  EXPECT_TRUE(has_violation(report, "L2"));
}

TEST(Validate, LayerRangeOutsideLayerGatesIsReportedNotRead) {
  // One CZ scheduled in layer 0; layer 1's range is reversed and layer 2's
  // runs past layer_gates. L2 reports both, and no check reads them (a read
  // past layer_gates aborts under _GLIBCXX_ASSERTIONS).
  px::CompileResult result;
  result.circuit = parallax::circuit::Circuit(2, "two");
  result.circuit.cz(0, 1);
  result.in_aod = {1, 0};
  px::Layer layer;
  layer.positions = {{0.0, 0.0}, {5.0, 0.0}};
  result.layers = {layer, layer, layer};
  set_gate_lists(result, {{0}, {}, {}});
  result.layers[1].gates_begin = 1;
  result.layers[1].gates_end = 0;
  result.layers[2].gates_begin = 0;
  result.layers[2].gates_end = 3;
  const auto report = px::validate_schedule(
      result, ph::HardwareConfig::quera_aquila_256());
  EXPECT_TRUE(
      has_violation(report, "L2: layer 1 has gate range [1, 0) outside"));
  EXPECT_TRUE(
      has_violation(report, "L2: layer 2 has gate range [0, 3) outside"));
}

TEST(Validate, SnapshotAndFlagSizesAreReportedNotRead) {
  // One CZ on two qubits, but the layer records one position and in_aod
  // holds no flag: both are reported, and neither is indexed by qubit.
  px::CompileResult result;
  result.circuit = parallax::circuit::Circuit(2, "two");
  result.circuit.cz(0, 1);
  px::Layer short_snapshot;
  short_snapshot.positions = {{0.0, 0.0}};
  result.layers = {short_snapshot};
  set_gate_lists(result, {{0}});
  auto report = px::validate_schedule(result,
                                      ph::HardwareConfig::quera_aquila_256());
  EXPECT_TRUE(has_violation(report, "P1: layer 0 records 1 positions"));

  result.layers[0].positions = {{0.0, 0.0}, {5.0, 0.0}};
  report = px::validate_schedule(result,
                                 ph::HardwareConfig::quera_aquila_256());
  EXPECT_TRUE(has_violation(report, "P1: in_aod holds 0 flags"));
}
