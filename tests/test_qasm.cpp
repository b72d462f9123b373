// QASM 2.0 frontend tests: lexing, parsing, qelib1 gates, macro expansion,
// broadcasting, expressions, error reporting, and writer round-trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <numbers>
#include <sstream>
#include <stdexcept>
#include <string>

#include "circuit/transpile.hpp"
#include "qasm/lexer.hpp"
#include "qasm/parser.hpp"
#include "qasm/stream_parser.hpp"
#include "qasm/writer.hpp"
#include "mutation.hpp"

namespace pq = parallax::qasm;
namespace pc = parallax::circuit;
constexpr double kPi = std::numbers::pi;

TEST(Lexer, TokenizesSymbolsAndNumbers) {
  const auto tokens = pq::tokenize("qreg q[16]; u3(0.5,-pi/2,2e-3) q[0];");
  ASSERT_GT(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].kind, pq::TokenKind::kIdentifier);
  EXPECT_EQ(tokens[0].text, "qreg");
  EXPECT_EQ(tokens[2].kind, pq::TokenKind::kLBracket);
  EXPECT_EQ(tokens.back().kind, pq::TokenKind::kEof);
}

TEST(Lexer, SkipsComments) {
  const auto tokens = pq::tokenize("// comment line\nqreg // trailing\nq");
  EXPECT_EQ(tokens[0].text, "qreg");
  EXPECT_EQ(tokens[1].text, "q");
}

TEST(Lexer, TracksLineNumbers) {
  const auto tokens = pq::tokenize("a\nb\n  c");
  EXPECT_EQ(tokens[0].line, 1);
  EXPECT_EQ(tokens[1].line, 2);
  EXPECT_EQ(tokens[2].line, 3);
  EXPECT_EQ(tokens[2].column, 3);
}

TEST(Lexer, ArrowAndEqeq) {
  const auto tokens = pq::tokenize("-> == -");
  EXPECT_EQ(tokens[0].kind, pq::TokenKind::kArrow);
  EXPECT_EQ(tokens[1].kind, pq::TokenKind::kEqualEqual);
  EXPECT_EQ(tokens[2].kind, pq::TokenKind::kMinus);
}

TEST(Lexer, RejectsUnknownCharacters) {
  EXPECT_THROW(pq::tokenize("qreg $"), pq::ParseError);
}

TEST(Parser, MinimalProgram) {
  const auto result = pq::parse(R"(
    OPENQASM 2.0;
    include "qelib1.inc";
    qreg q[2];
    creg c[2];
    h q[0];
    cx q[0],q[1];
    measure q -> c;
  )");
  EXPECT_EQ(result.circuit.n_qubits(), 2);
  EXPECT_EQ(result.n_classical_bits, 2);
  EXPECT_EQ(result.circuit.cz_count(), 1u);  // cx = h cz h
  EXPECT_EQ(result.circuit.u3_count(), 3u);
  EXPECT_EQ(result.circuit.count(pc::GateType::kMeasure), 2u);
}

TEST(Parser, HeaderOptional) {
  const auto result = pq::parse("qreg q[1]; U(0,0,0) q[0];");
  EXPECT_EQ(result.circuit.size(), 1u);
}

TEST(Parser, RejectsQasm3) {
  EXPECT_THROW(pq::parse("OPENQASM 3.0;"), pq::ParseError);
}

TEST(Parser, NativeCzInterception) {
  const auto result = pq::parse(R"(
    include "qelib1.inc";
    qreg q[2];
    cz q[0],q[1];
  )");
  EXPECT_EQ(result.circuit.cz_count(), 1u);
  EXPECT_EQ(result.circuit.u3_count(), 0u);  // no H padding inserted
}

TEST(Parser, SwapStaysNative) {
  const auto result = pq::parse(R"(
    include "qelib1.inc";
    qreg q[2];
    swap q[0],q[1];
  )");
  EXPECT_EQ(result.circuit.swap_count(), 1u);
}

TEST(Parser, RegisterBroadcasting) {
  const auto result = pq::parse(R"(
    include "qelib1.inc";
    qreg q[3];
    h q;
  )");
  EXPECT_EQ(result.circuit.u3_count(), 3u);
}

TEST(Parser, TwoQubitBroadcasting) {
  const auto result = pq::parse(R"(
    include "qelib1.inc";
    qreg a[3];
    qreg b[3];
    cx a,b;
  )");
  EXPECT_EQ(result.circuit.cz_count(), 3u);
  // Registers are flattened: a -> 0..2, b -> 3..5.
  EXPECT_EQ(result.circuit.n_qubits(), 6);
}

TEST(Parser, BroadcastSizeMismatchFails) {
  EXPECT_THROW(pq::parse(R"(
    include "qelib1.inc";
    qreg a[2];
    qreg b[3];
    cx a,b;
  )"),
               pq::ParseError);
}

TEST(Parser, ParameterExpressions) {
  const auto result = pq::parse(R"(
    include "qelib1.inc";
    qreg q[1];
    rz(pi/4) q[0];
    rz(-pi) q[0];
    rz(2*pi/8+1) q[0];
    rz(sin(pi/2)) q[0];
    rz(2^3) q[0];
  )");
  const auto& g = result.circuit.gates();
  ASSERT_EQ(g.size(), 5u);
  EXPECT_NEAR(g[0].lambda, kPi / 4, 1e-12);
  EXPECT_NEAR(g[1].lambda, -kPi, 1e-12);
  EXPECT_NEAR(g[2].lambda, kPi / 4 + 1, 1e-12);
  EXPECT_NEAR(g[3].lambda, 1.0, 1e-12);
  EXPECT_NEAR(g[4].lambda, 8.0, 1e-12);
}

TEST(Parser, CustomGateDefinitionAndExpansion) {
  const auto result = pq::parse(R"(
    include "qelib1.inc";
    gate bell a,b { h a; cx a,b; }
    qreg q[2];
    bell q[0],q[1];
  )");
  EXPECT_EQ(result.circuit.cz_count(), 1u);
  EXPECT_EQ(result.circuit.u3_count(), 3u);
}

TEST(Parser, ParameterizedCustomGate) {
  const auto result = pq::parse(R"(
    include "qelib1.inc";
    gate wiggle(a,b) q { rz(a+b) q; rz(a-b) q; }
    qreg q[1];
    wiggle(0.5,0.25) q[0];
  )");
  const auto& g = result.circuit.gates();
  ASSERT_EQ(g.size(), 2u);
  EXPECT_NEAR(g[0].lambda, 0.75, 1e-12);
  EXPECT_NEAR(g[1].lambda, 0.25, 1e-12);
}

TEST(Parser, NestedCustomGates) {
  const auto result = pq::parse(R"(
    include "qelib1.inc";
    gate inner a { h a; }
    gate outer a,b { inner a; inner b; cx a,b; }
    qreg q[2];
    outer q[0],q[1];
  )");
  EXPECT_EQ(result.circuit.cz_count(), 1u);
  EXPECT_EQ(result.circuit.u3_count(), 4u);
}

TEST(Parser, QelibToffoliExpands) {
  const auto result = pq::parse(R"(
    include "qelib1.inc";
    qreg q[3];
    ccx q[0],q[1],q[2];
  )");
  EXPECT_EQ(result.circuit.cz_count(), 6u);
}

TEST(Parser, MeasureIndexedAndBroadcast) {
  const auto result = pq::parse(R"(
    include "qelib1.inc";
    qreg q[3];
    creg c[3];
    measure q[1] -> c[1];
    measure q -> c;
  )");
  EXPECT_EQ(result.circuit.count(pc::GateType::kMeasure), 4u);
}

TEST(Parser, BarrierParses) {
  const auto result = pq::parse(R"(
    include "qelib1.inc";
    qreg q[2];
    h q[0];
    barrier q;
    barrier q[0],q[1];
    h q[1];
  )");
  EXPECT_EQ(result.circuit.count(pc::GateType::kBarrier), 2u);
}

TEST(Parser, ErrorsCarryLocation) {
  try {
    (void)pq::parse("qreg q[2];\nbogus q[0];");
    FAIL() << "expected ParseError";
  } catch (const pq::ParseError& e) {
    EXPECT_EQ(e.line(), 2);
  }
}

TEST(Parser, RejectsUnknownGate) {
  EXPECT_THROW(pq::parse("qreg q[1]; notagate q[0];"), pq::ParseError);
}

TEST(Parser, RejectsReset) {
  EXPECT_THROW(pq::parse("qreg q[1]; reset q[0];"), pq::ParseError);
}

TEST(Parser, RejectsClassicalControl) {
  EXPECT_THROW(
      pq::parse("qreg q[1]; creg c[1]; if(c==1) U(0,0,0) q[0];"),
      pq::ParseError);
}

TEST(Parser, RejectsOpaqueInstantiation) {
  EXPECT_THROW(pq::parse(R"(
    opaque mystery a,b;
    qreg q[2];
    mystery q[0],q[1];
  )"),
               pq::ParseError);
}

TEST(Parser, RejectsIndexOutOfRange) {
  EXPECT_THROW(pq::parse("qreg q[2]; U(0,0,0) q[5];"), pq::ParseError);
}

TEST(Parser, RejectsDuplicateRegister) {
  EXPECT_THROW(pq::parse("qreg q[2]; qreg q[3];"), pq::ParseError);
}

// --- register sizes and indices are checked before any int32 cast -----------

namespace {

/// The ParseError `source` raises; fails the test when it parses.
pq::ParseError parse_error(const std::string& source) {
  try {
    (void)pq::parse(source);
  } catch (const pq::ParseError& e) {
    return e;
  }
  ADD_FAILURE() << "expected ParseError for: " << source;
  return pq::ParseError("parsed", 0, 0);
}

}  // namespace

TEST(Parser, RejectsARegisterSizeAboveInt32) {
  const pq::ParseError e = parse_error("qreg q[1e12];");
  EXPECT_EQ(e.line(), 1);
  EXPECT_EQ(e.column(), 8);
}

TEST(Parser, RejectsAQubitIndexAboveInt32) {
  const pq::ParseError e =
      parse_error("include \"qelib1.inc\";\nqreg q[2];\nh q[1e12];");
  EXPECT_EQ(e.line(), 3);
  EXPECT_EQ(e.column(), 5);
}

TEST(Parser, RejectsAClbitIndexAboveInt32) {
  const pq::ParseError e =
      parse_error("qreg q[1];\ncreg c[2];\nmeasure q[0] -> c[1e12];");
  EXPECT_EQ(e.line(), 3);
  EXPECT_EQ(e.column(), 19);
}

TEST(Parser, RejectsAFractionalIndex) {
  const pq::ParseError e =
      parse_error("include \"qelib1.inc\";\nqreg q[2];\nh q[0.9];");
  EXPECT_EQ(e.line(), 3);
  EXPECT_EQ(e.column(), 5);
  EXPECT_NE(std::string(e.what()).find("integer"), std::string::npos)
      << e.what();
}

TEST(Parser, RejectsAFractionalRegisterSize) {
  const pq::ParseError e = parse_error("qreg q[2.5];");
  EXPECT_EQ(e.column(), 8);
}

TEST(Parser, RejectsAQubitTotalPastInt32) {
  const pq::ParseError e = parse_error("qreg a[2147483647];\nqreg b[2];");
  EXPECT_EQ(e.line(), 2);
  EXPECT_EQ(e.column(), 8);
  EXPECT_NE(std::string(e.what()).find("qubit count"), std::string::npos)
      << e.what();
  // The largest register that fits still parses.
  EXPECT_NO_THROW((void)pq::parse("qreg a[2147483646];\nqreg b[1];"));
}

TEST(Parser, RejectsAClbitTotalPastInt32) {
  const pq::ParseError e = parse_error("creg a[2147483647];\ncreg b[2];");
  EXPECT_EQ(e.line(), 2);
  EXPECT_EQ(e.column(), 8);
  EXPECT_NE(std::string(e.what()).find("clbit count"), std::string::npos)
      << e.what();
}

// --- the in-memory parse holds at most CircuitBuilder::kMaxGates gates -----

TEST(Parser, RejectsABroadcastPastTheGateCap) {
  static_assert(pq::CircuitBuilder::kMaxGates == 4194304);
  // 2*10^8 gates from one broadcast: rejected at the gate name, before the
  // first gate is emitted.
  const pq::ParseError e = parse_error(
      "include \"qelib1.inc\";\nqreg q[200000000];\n  h q;");
  EXPECT_EQ(e.line(), 3);
  EXPECT_EQ(e.column(), 3);
  EXPECT_NE(std::string(e.what()).find(
                "statement would exceed the limit of 4194304 gates"),
            std::string::npos)
      << e.what();
  // One gate past the cap; a CX broadcast counts its three gates per pair.
  EXPECT_EQ(parse_error("qreg q[4194305];\nU(0,0,0) q;").line(), 2);
  const pq::ParseError cx =
      parse_error("qreg a[1398102];\nqreg b[1398102];\nCX a, b;");
  EXPECT_EQ(cx.line(), 3);
  EXPECT_EQ(cx.column(), 1);
  EXPECT_EQ(parse_error("qreg q[4194305];\ncreg c[4194305];\n"
                        "measure q -> c;")
                .column(),
            1);
}

TEST(Parser, GateCapCountsEachStatementBeforeItEmits) {
  // A visitor capped at `cap` gates; the program emits 4 + 3 + 1 + 1 gates,
  // then a qelib1 cx (three more).
  class Capped final : public pq::GateStreamVisitor {
   public:
    explicit Capped(std::uint64_t cap) : cap_(cap) {}
    void on_gate(const pc::Gate&) override { ++seen; }
    [[nodiscard]] std::uint64_t max_gates() const noexcept override {
      return cap_;
    }
    std::uint64_t seen = 0;

   private:
    std::uint64_t cap_;
  };
  const std::string program =
      "include \"qelib1.inc\";\nqreg q[4];\ncreg c[4];\n"
      "h q;\nCX q[0], q[1];\nbarrier q;\nmeasure q[0] -> c[0];\n"
      "cx q[2], q[3];\n";
  {
    // The cap is inclusive: 12 gates fit a cap of 12.
    std::istringstream in(program);
    pq::StreamParser parser(in);
    Capped visitor(12);
    EXPECT_EQ(parser.run(visitor).n_gates, 12u);
  }
  // Under a cap of 11 the cx is rejected at its name, and none of its gates
  // reach the visitor.
  std::istringstream in(program);
  pq::StreamParser parser(in);
  Capped visitor(11);
  try {
    (void)parser.run(visitor);
    ADD_FAILURE() << "expected ParseError";
  } catch (const pq::ParseError& e) {
    EXPECT_EQ(e.line(), 8);
    EXPECT_EQ(e.column(), 1);
  }
  EXPECT_EQ(visitor.seen, 9u);
  // A visitor that keeps no gates is unbounded by default.
  class CountOnly final : public pq::GateStreamVisitor {
   public:
    void on_gate(const pc::Gate&) override {}
  };
  EXPECT_EQ(CountOnly{}.max_gates(),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(Parser, AnOversizedBroadcastIsAParseErrorNotAnAllocation) {
  // 2*10^8 gates are 8 GB of circuit::Gate. The probe runs in a child
  // process capped 1 GiB above its size, so a parse that materializes the
  // broadcast fails there with std::bad_alloc instead of touching memory.
  EXPECT_EXIT(
      {
        if (!parallax::fuzz::cap_address_space(std::uint64_t{1} << 30)) {
          std::_Exit(2);
        }
        try {
          (void)pq::parse(
              "include \"qelib1.inc\";\nqreg q[200000000];\nh q;");
        } catch (const pq::ParseError& error) {
          std::fprintf(stderr, "%s\n", error.what());
          std::_Exit(0);
        }
        std::_Exit(1);
      },
      ::testing::ExitedWithCode(0),
      "qasm:3:1: statement would exceed the limit of 4194304 gates");
}

TEST(Parser, MultipleQregsFlatten) {
  const auto result = pq::parse(R"(
    include "qelib1.inc";
    qreg a[2];
    qreg b[3];
    h b[2];
  )");
  EXPECT_EQ(result.circuit.n_qubits(), 5);
  EXPECT_EQ(result.circuit.gates()[0].q[0], 4);  // b[2] flattens to 2+2
}

TEST(Writer, RoundTripPreservesStructure) {
  pc::Circuit c(3, "rt");
  c.h(0);
  c.cz(0, 1);
  c.swap(1, 2);
  c.u3(2, 0.1, -0.2, 0.3);
  c.barrier();
  c.measure_all();
  const std::string text = pq::to_qasm(c);
  const auto reparsed = pq::parse(text).circuit;
  EXPECT_EQ(reparsed.n_qubits(), c.n_qubits());
  EXPECT_EQ(reparsed.cz_count(), c.cz_count());
  EXPECT_EQ(reparsed.swap_count(), c.swap_count());
  EXPECT_EQ(reparsed.u3_count(), c.u3_count());
  EXPECT_EQ(reparsed.count(pc::GateType::kMeasure), 3u);
}

TEST(Writer, RoundTripPreservesAngles) {
  pc::Circuit c(1);
  c.u3(0, 0.12345678901234, -2.3456789012345, 3.0123456789);
  const auto reparsed = pq::parse(pq::to_qasm(c)).circuit;
  ASSERT_EQ(reparsed.size(), 1u);
  EXPECT_DOUBLE_EQ(reparsed.gates()[0].theta, 0.12345678901234);
  EXPECT_DOUBLE_EQ(reparsed.gates()[0].phi, -2.3456789012345);
  EXPECT_DOUBLE_EQ(reparsed.gates()[0].lambda, 3.0123456789);
}

TEST(EndToEnd, QasmThroughTranspiler) {
  // GHZ-ish circuit through the full frontend + transpiler pipeline.
  const auto parsed = pq::parse(R"(
    OPENQASM 2.0;
    include "qelib1.inc";
    qreg q[4];
    creg c[4];
    h q[0];
    cx q[0],q[1];
    cx q[1],q[2];
    cx q[2],q[3];
    measure q -> c;
  )");
  const auto out = pc::transpile(parsed.circuit);
  EXPECT_EQ(out.cz_count(), 3u);
  // h q0; then each cx contributes h-cz-h on target; adjacent h's across cx
  // boundaries on different qubits cannot merge, so u3 count is 1 + 2*3 = 7.
  EXPECT_EQ(out.u3_count(), 7u);
}

// --- error reporting: every ParseError names source:line:column ------------

TEST(Errors, UnknownGateNamesSourceLineAndColumn) {
  std::istringstream in(
      "OPENQASM 2.0;\n"
      "qreg q[2];\n"
      "boop q[0];\n");
  pq::StreamParser parser(in, "prog.qasm");
  pq::CircuitBuilder sink;
  try {
    (void)parser.run(sink);
    FAIL() << "expected ParseError";
  } catch (const pq::ParseError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_EQ(e.column(), 1);
    const std::string what = e.what();
    EXPECT_NE(what.find("prog.qasm:3:1:"), std::string::npos) << what;
    EXPECT_NE(what.find("unknown gate 'boop'"), std::string::npos) << what;
  }
}

TEST(Errors, MismatchQuotesOffendingToken) {
  try {
    (void)pq::parse("qreg q[abc];");
    FAIL() << "expected ParseError";
  } catch (const pq::ParseError& e) {
    // Default source name is "qasm"; "abc" sits at line 1, column 8.
    const std::string what = e.what();
    EXPECT_NE(what.find("qasm:1:8:"), std::string::npos) << what;
    EXPECT_NE(what.find("expected"), std::string::npos) << what;
    EXPECT_NE(what.find("'abc'"), std::string::npos) << what;
  }
}

TEST(Errors, ColumnPointsMidLine) {
  std::istringstream in("qreg q[1]; creg c[1]; measure q[0] -> c[5];\n");
  pq::StreamParser parser(in, "m.qasm");
  pq::CircuitBuilder sink;
  try {
    (void)parser.run(sink);
    FAIL() << "expected ParseError";
  } catch (const pq::ParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_GT(e.column(), 20);  // failure is in the measure statement
    EXPECT_NE(std::string(e.what()).find("m.qasm:1:"), std::string::npos)
        << e.what();
  }
}

TEST(Errors, ParseFileNamesMissingPath) {
  try {
    (void)pq::parse_file("/nonexistent/missing_circuit.qasm");
    FAIL() << "expected runtime_error";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("missing_circuit.qasm"),
              std::string::npos)
        << e.what();
  }
}

TEST(Parser, TheLibraryReplacesEarlierDefinitionsAndLaterOnesReplaceIt) {
  // `h` defined before the include gives way to qelib1's; `x` defined
  // after it replaces qelib1's.
  const auto result = pq::parse(R"(
    gate h a { U(0.125,0,0) a; }
    include "qelib1.inc";
    gate x a { U(0.25,0,0) a; }
    qreg q[1];
    h q[0];
    x q[0];
  )");
  const auto& g = result.circuit.gates();
  ASSERT_EQ(g.size(), 2u);
  EXPECT_DOUBLE_EQ(g[0].theta, kPi / 2);  // qelib1: h = u2(0,pi)
  EXPECT_DOUBLE_EQ(g[0].lambda, kPi);
  EXPECT_EQ(g[1].theta, 0.25);
  EXPECT_EQ(g[1].lambda, 0.0);

  // Another parse sees qelib1's `x` again, not the last program's.
  const auto again = pq::parse(R"(
    include "qelib1.inc";
    qreg q[1];
    x q[0];
  )");
  ASSERT_EQ(again.circuit.size(), 1u);
  EXPECT_DOUBLE_EQ(again.circuit.gate(0).theta, kPi);
  EXPECT_DOUBLE_EQ(again.circuit.gate(0).lambda, kPi);
}
