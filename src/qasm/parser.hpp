// Whole-circuit convenience API over the streaming front end
// (qasm::StreamParser): collects the resolved event stream into a flat
// circuit::Circuit in the {U3, CZ, SWAP, measure, barrier} representation.
// Custom `gate` macros are fully expanded; the native cz/swap idioms from
// qelib1 are recognized and kept as native gates rather than re-decomposed.
// Callers that must not materialize the whole gate list (million-gate
// corpora) should drive StreamParser with their own visitor instead. The
// collected circuit holds at most CircuitBuilder::kMaxGates (2^22) gates; a
// statement that would pass the cap is a ParseError before it emits.
//
// Supported: OPENQASM header, include "qelib1.inc" (embedded), qreg/creg,
// gate definitions with parameter expressions, gate calls with QASM2
// register broadcasting, U/CX builtins, measure, barrier.
// Rejected with ParseError: opaque-gate instantiation, reset, if().
#pragma once

#include <string>
#include <string_view>

#include "circuit/circuit.hpp"
#include "qasm/lexer.hpp"

namespace parallax::qasm {

struct ParseResult {
  circuit::Circuit circuit;
  int n_classical_bits = 0;
};

/// Parses QASM source text. `name` becomes the circuit name.
[[nodiscard]] ParseResult parse(std::string_view source,
                                std::string name = "");

/// Reads and parses a .qasm file; the file stem becomes the circuit name.
/// Throws std::runtime_error if the file cannot be read, ParseError on
/// syntax errors.
[[nodiscard]] ParseResult parse_file(const std::string& path);

}  // namespace parallax::qasm
