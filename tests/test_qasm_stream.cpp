// Streaming front-end tests: the pull parser must emit exactly the event
// stream the legacy collecting parse() materializes, survive writer
// round-trip fuzz, and parse a million-gate program in O(1) memory — that
// last property is what makes external corpora importable at all.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "bench_circuits/registry.hpp"
#include "qasm/parser.hpp"
#include "qasm/stream_parser.hpp"
#include "qasm/writer.hpp"

#include "mutation.hpp"

namespace pq = parallax::qasm;
namespace pc = parallax::circuit;
namespace pb = parallax::bench_circuits;

namespace {

bool gates_equal(const pc::Gate& a, const pc::Gate& b) {
  return a.type == b.type && a.q[0] == b.q[0] && a.q[1] == b.q[1] &&
         a.theta == b.theta && a.phi == b.phi && a.lambda == b.lambda;
}

/// Records the raw event stream without building a circuit.
class RecordingVisitor final : public pq::GateStreamVisitor {
 public:
  std::vector<pc::Gate> gates;
  void on_gate(const pc::Gate& gate) override { gates.push_back(gate); }
};

/// A std::streambuf that *generates* an n-gate QASM program on the fly, so
/// the million-gate test never holds the source text (~40 MB) in memory —
/// peak RSS then measures the parser alone.
class QasmGenBuf final : public std::streambuf {
 public:
  QasmGenBuf(std::int32_t n_qubits, std::uint64_t n_gates)
      : n_qubits_(n_qubits), remaining_(n_gates) {
    buffer_ = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[" +
              std::to_string(n_qubits) + "];\n";
    fill();
    setg(buffer_.data(), buffer_.data(), buffer_.data() + buffer_.size());
  }

  std::uint64_t bytes_generated() const { return bytes_generated_; }

 protected:
  int_type underflow() override {
    if (gptr() < egptr()) return traits_type::to_int_type(*gptr());
    if (remaining_ == 0) return traits_type::eof();
    buffer_.clear();
    fill();
    if (buffer_.empty()) return traits_type::eof();
    setg(buffer_.data(), buffer_.data(), buffer_.data() + buffer_.size());
    return traits_type::to_int_type(*gptr());
  }

 private:
  void fill() {
    char stmt[96];
    while (remaining_ > 0 && buffer_.size() < 64 * 1024) {
      const std::int32_t a =
          static_cast<std::int32_t>(counter_ % n_qubits_);
      const std::int32_t b =
          static_cast<std::int32_t>((counter_ * 7 + 1) % n_qubits_);
      int len;
      if (counter_ % 2 == 0 || a == b) {
        // Writer-realistic angles: full-precision doubles.
        len = std::snprintf(stmt, sizeof stmt,
                            "u3(0.78539816339744828,-1.5707963267948966,"
                            "3.1415926535897931) q[%d];\n",
                            a);
      } else {
        len = std::snprintf(stmt, sizeof stmt, "cz q[%d],q[%d];\n", a, b);
      }
      buffer_.append(stmt, static_cast<std::size_t>(len));
      ++counter_;
      --remaining_;
    }
    bytes_generated_ += buffer_.size();
  }

  std::int32_t n_qubits_;
  std::uint64_t remaining_;
  std::uint64_t counter_ = 0;
  std::uint64_t bytes_generated_ = 0;
  std::string buffer_;
};

/// Peak resident set (VmHWM) in bytes, from /proc/self/status. 0 when the
/// platform does not expose it — callers skip the bound then.
std::uint64_t peak_rss_bytes() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    std::uint64_t kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %lu kB",
                    reinterpret_cast<unsigned long*>(&kb)) == 1) {
      return kb * 1024;
    }
  }
  return 0;
}

}  // namespace

TEST(Stream, EventStreamMatchesLegacyParseOnBenchmarks) {
  for (const pb::BenchmarkInfo& info : pb::all_benchmarks()) {
    const std::string text = pq::to_qasm(pb::make_benchmark(info.acronym, {}));

    const pq::ParseResult legacy = pq::parse(text, info.acronym);

    std::istringstream in(text);
    pq::StreamParser parser(in, info.acronym);
    RecordingVisitor events;
    const pq::StreamTotals totals = parser.run(events);

    ASSERT_EQ(events.gates.size(), legacy.circuit.gates().size())
        << info.acronym;
    for (std::size_t i = 0; i < events.gates.size(); ++i) {
      ASSERT_TRUE(gates_equal(events.gates[i], legacy.circuit.gates()[i]))
          << info.acronym << " gate " << i;
    }
    EXPECT_EQ(totals.n_qubits, legacy.circuit.n_qubits()) << info.acronym;
    EXPECT_EQ(totals.n_clbits, legacy.n_classical_bits) << info.acronym;
    EXPECT_EQ(totals.n_gates, events.gates.size()) << info.acronym;
    EXPECT_EQ(totals.n_bytes, text.size()) << info.acronym;
  }
}

TEST(Stream, WriterRoundTripFuzz) {
  std::mt19937_64 rng(0xF00DF00Dull);
  std::uniform_real_distribution<double> angle(-6.5, 6.5);
  for (int trial = 0; trial < 24; ++trial) {
    const std::int32_t n =
        2 + static_cast<std::int32_t>(rng() % 19);  // 2..20 qubits
    pc::Circuit original(n, "fuzz");
    const int n_gates = 1 + static_cast<int>(rng() % 200);
    for (int g = 0; g < n_gates; ++g) {
      const std::int32_t a = static_cast<std::int32_t>(rng() % n);
      std::int32_t b = static_cast<std::int32_t>(rng() % n);
      if (b == a) b = (a + 1) % n;
      switch (rng() % 4) {
        case 0:
          original.u3(a, angle(rng), angle(rng), angle(rng));
          break;
        case 1:
          original.cz(a, b);
          break;
        case 2:
          original.swap(a, b);
          break;
        default:
          original.h(a);
          break;
      }
    }
    if (trial % 3 == 0) original.measure_all();

    const std::string text = pq::to_qasm(original);
    const pc::Circuit reparsed = pq::parse(text, "fuzz").circuit;
    ASSERT_EQ(reparsed.n_qubits(), original.n_qubits()) << "trial " << trial;
    ASSERT_EQ(reparsed.size(), original.size()) << "trial " << trial;
    for (std::size_t i = 0; i < original.gates().size(); ++i) {
      ASSERT_TRUE(gates_equal(reparsed.gates()[i], original.gates()[i]))
          << "trial " << trial << " gate " << i;
    }
  }
}

TEST(StreamFuzz, MutatedProgramsParseOrThrowParseError) {
  // Between them the programs cover the include, parameterized custom
  // gates, broadcasts, measures and barriers; the contract is a
  // ParseResult or a qasm::ParseError. A parse that includes qelib1.inc
  // re-parses the library (about twenty times the cost of the rest of a
  // small program), so that program gets fewer mutants. The counts keep
  // the test near 13 s under ThreadSanitizer (a parse costs 2-7 ms there),
  // which runs the full ctest in CI.
  struct Program {
    std::string text;
    int mutants;
  };
  const std::vector<Program> programs = {
      {"OPENQASM 2.0;\n"
       "include \"qelib1.inc\";\n"
       "gate rot(theta, phi) a, b { u3(theta, phi / 2, -pi) a; cx a, b; "
       "rz(sin(theta) * 2) b; }\n"
       "qreg q[3];\n"
       "creg c[3];\n"
       "h q;\n"
       "rot(0.25, 1.5e-1) q[0], q[2];\n"
       "barrier q[0], q[1];\n"
       "ccx q[0], q[1], q[2];\n"
       "measure q -> c;\n",
       1000},
      {"OPENQASM 2.0;\n"
       "gate layer(t) x, y, z { U(t, 0, -t) x; CX x, y; U(0, 0, t / 2) z; "
       "CX y, z; }\n"
       "qreg a[2];\n"
       "qreg b[2];\n"
       "creg m[2];\n"
       "layer(pi / 4) a[0], a[1], b[0];\n"
       "CX a, b;\n"
       "barrier a, b;\n"
       "measure b[1] -> m[0];\n"
       "measure a -> m;\n",
       2000},
      {"OPENQASM 2.0;\n"
       "gate twist(x) p { U(x, 0, ln(2)) p; }\n"
       "gate pair(x, y) p, r { twist(x * y) p; CX p, r; twist(-y) r; }\n"
       "qreg r[4];\n"
       "creg k[4];\n"
       "twist(exp(1) - sqrt(2)) r;\n"
       "pair(cos(0.5), 3) r[0], r[3];\n"
       "barrier r;\n"
       "measure r -> k;\n",
       2000},
  };
  std::uint64_t seed = 0x0A5E;
  for (const Program& program : programs) {
    ASSERT_NO_THROW((void)pq::parse(program.text)) << program.text;
    const auto tally = parallax::fuzz::run_mutants<pq::ParseError>(
        program.text, seed++, program.mutants,
        [](const std::string& bytes) { (void)pq::parse(bytes); });
    for (const std::string& escape : tally.escapes) {
      ADD_FAILURE() << "outside the contract: " << escape;
    }
    EXPECT_GT(tally.decoded, 0u);
    EXPECT_GT(tally.rejected, 0u);
  }
}

TEST(Stream, MillionGateParseStaysBounded) {
  constexpr std::uint64_t kGates = 1'000'000;
  QasmGenBuf gen(256, kGates);
  std::istream in(&gen);
  pq::StreamParser parser(in, "synthetic-1m.qasm");
  RecordingVisitor* no_storage = nullptr;
  (void)no_storage;

  class CountOnly final : public pq::GateStreamVisitor {
   public:
    std::uint64_t seen = 0;
    void on_gate(const pc::Gate&) override { ++seen; }
  } visitor;

  const pq::StreamTotals totals = parser.run(visitor);
  EXPECT_EQ(totals.n_gates, kGates);
  EXPECT_EQ(visitor.seen, kGates);
  EXPECT_EQ(totals.n_qubits, 256);
  EXPECT_EQ(totals.n_bytes, gen.bytes_generated());

  // The parser holds registers + macro tables only — peak RSS for the whole
  // process (gtest + prior tests in this binary included) stays far below
  // what materializing a million gates (~48 MB) plus the source (~40 MB)
  // would force. 200 MB is a loose ceiling; the observed peak is ~10 MB.
  const std::uint64_t peak = peak_rss_bytes();
  if (peak > 0) {
    EXPECT_LT(peak, 200ull * 1024 * 1024)
        << "streaming parse should be O(1) in gate count";
  }
}
