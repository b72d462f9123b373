// Pull-based OpenQASM 2.0 parser: lexes from a buffered std::istream and
// emits fully resolved gate events (register broadcasting, qelib1 and custom
// macro expansion done on the fly) through a visitor interface. Memory stays
// O(gate declarations + registers) no matter how many gates stream through —
// this is the million-gate ingest path. The legacy parse()/parse_file() API
// (parser.hpp) is a thin visitor over this class that collects the events
// into a circuit::Circuit.
#pragma once

#include <cstdint>
#include <istream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/gate.hpp"
#include "qasm/ast.hpp"
#include "qasm/stream_lexer.hpp"

namespace parallax::qasm {

/// Receives resolved events in program order. Gate events carry flat qubit
/// indices (registers concatenate in declaration order) and fully evaluated
/// parameters; measure and barrier arrive as their circuit::Gate kinds.
class GateStreamVisitor {
 public:
  virtual ~GateStreamVisitor() = default;

  /// One resolved gate (U3/CZ/SWAP/measure/barrier) in program order.
  virtual void on_gate(const circuit::Gate& gate) = 0;
  /// Most gates this visitor accepts over one run. StreamParser rejects the
  /// statement that would emit past it with a ParseError at the statement's
  /// first token, before emitting any of its gates. Unbounded by default: a
  /// streaming visitor keeps no per-gate state.
  [[nodiscard]] virtual std::uint64_t max_gates() const noexcept {
    return std::numeric_limits<std::uint64_t>::max();
  }
};

/// Totals accumulated over one StreamParser::run().
struct StreamTotals {
  std::int32_t n_qubits = 0;
  std::int32_t n_clbits = 0;
  std::uint64_t n_gates = 0;  // events delivered to on_gate
  std::uint64_t n_bytes = 0;  // source bytes consumed by the lexer
};

/// Visitor that collects the event stream into a whole circuit::Circuit —
/// the bridge from a streaming parse into the in-memory pipeline (DAG,
/// transpile, placement). Only for circuits that should be materialized;
/// callers that just need counts or the interaction graph use their own
/// visitor and stay O(1) in the gate count.
class CircuitBuilder : public GateStreamVisitor {
 public:
  /// The in-memory parse's gate cap: 2^22 gates, about 170 MB of
  /// circuit::Gate. A broadcast such as `qreg q[200000000]; h q;` is then a
  /// ParseError, not an allocation failure, and the gate vector's growth to
  /// the cap fits under a 2 GiB address-space limit.
  static constexpr std::uint64_t kMaxGates = std::uint64_t{1} << 22;

  void on_gate(const circuit::Gate& gate) override { gates_.push_back(gate); }
  [[nodiscard]] std::uint64_t max_gates() const noexcept override {
    return kMaxGates;
  }

  /// Assembles the circuit after StreamParser::run() returns. The builder is
  /// left empty.
  [[nodiscard]] circuit::Circuit take(std::string name,
                                      const StreamTotals& totals);

 private:
  std::vector<circuit::Gate> gates_;
};

class StreamParser {
 public:
  /// `source_name` prefixes error positions; pass the file path when parsing
  /// a file so errors read "path.qasm:12:7: ...".
  explicit StreamParser(std::istream& in, std::string source_name = "qasm");

  /// Parses the whole stream, delivering events to `visitor`. Throws
  /// ParseError (with source:line:column) on any lexical or syntax error.
  StreamTotals run(GateStreamVisitor& visitor);

 private:
  struct Register {
    std::int32_t offset = 0;  // first flat index
    std::int32_t size = 0;
  };

  /// A qubit argument at a call site: a whole register or one element.
  struct QubitArg {
    std::int32_t base = 0;   // flat index of element, or register offset
    std::int32_t count = 1;  // 1 for indexed, register size for whole-register

    [[nodiscard]] std::int32_t at(std::int32_t i) const noexcept {
      return count == 1 ? base : base + i;
    }
  };

  // --- token plumbing -----------------------------------------------------
  [[nodiscard]] const Token& peek() const noexcept { return current_; }
  [[nodiscard]] bool check(TokenKind kind) const noexcept {
    return current_.kind == kind;
  }
  [[nodiscard]] bool check_ident(std::string_view text) const noexcept {
    return current_.kind == TokenKind::kIdentifier && current_.text == text;
  }
  // advance()/expect() return a reference to an internal slot that is only
  // valid until the next advance; callers that need a token across further
  // parsing copy it into a local Token. skip()/require() are the variants
  // for tokens whose content is discarded — they avoid the slot swap.
  const Token& advance();
  const Token& expect(TokenKind kind, std::string_view what);
  void skip() { lexer_.next(current_); }
  void require(TokenKind kind, std::string_view what);
  [[noreturn]] void mismatch(std::string_view what) const;
  [[noreturn]] void error(const std::string& message, int line,
                          int column) const;
  [[noreturn]] void fail(std::string_view message) const;

  // --- grammar ------------------------------------------------------------
  void parse_header();
  void parse_statement();
  void parse_include();
  /// Gate definitions by name. Immutable and shared, so every parse that
  /// includes qelib1.inc shares the process's one parse of it.
  using GateTable = std::map<std::string, std::shared_ptr<const GateDef>>;
  [[nodiscard]] static const GateTable& qelib1_defs();
  /// Merges qelib1_defs() into gate_defs_.
  void load_library();
  void parse_reg(bool quantum);
  void parse_gate_def(bool opaque);
  BodyStatement parse_body_statement(
      const std::map<std::string, int>& param_slots,
      const std::map<std::string, int>& arg_slots);
  ExprPtr parse_expr(const std::map<std::string, int>* param_slots);
  ExprPtr parse_term(const std::map<std::string, int>* param_slots);
  ExprPtr parse_factor(const std::map<std::string, int>* param_slots);
  ExprPtr parse_unary(const std::map<std::string, int>* param_slots);
  ExprPtr parse_primary(const std::map<std::string, int>* param_slots);
  double parse_const_expr();
  double const_expr_tail(double lhs);
  double parse_const_term();
  double const_term_tail(double lhs);
  double parse_const_factor();
  double const_factor_tail(double base);
  double parse_const_unary();
  double parse_const_primary();
  QubitArg parse_qubit_arg();
  std::pair<std::int32_t, std::int32_t> parse_clbit_arg();
  /// The `[index]` after register `name`, checked against its size.
  std::int32_t parse_index(const std::string& name, const Register& reg);
  void parse_measure();
  void parse_barrier();
  void parse_gate_call();
  /// Rejects, at (line, column), a statement that would emit `count` gates
  /// past the visitor's max_gates().
  void check_gate_cap(std::uint64_t count, int line, int column) const;
  void emit(const circuit::Gate& gate);
  void emit_cx(std::int32_t control, std::int32_t target);

  // --- flattened macro expansion --------------------------------------------
  // A gate definition is expanded once, at first use, into a flat list of
  // primitive ops whose parameter expressions are rewritten over the
  // definition's own formals and constant-folded. Per call site this reduces
  // macro application to: evaluate the non-constant expressions, map formal
  // qubit slots to flat indices, emit.
  struct FlatOp {
    enum class Kind : unsigned char { kU3, kCZ, kSwap };
    Kind kind = Kind::kU3;
    std::int32_t q0 = 0;  // formal qubit slot
    std::int32_t q1 = 0;  // second slot for kCZ/kSwap
    double c[3] = {0.0, 0.0, 0.0};  // folded parameter values
    const Expr* e[3] = {nullptr, nullptr, nullptr};  // non-null if unfolded
  };
  struct FlatDef {
    int n_params = 0;
    int n_qubits = 0;
    std::vector<FlatOp> ops;
    std::vector<ExprPtr> owned;  // storage for the ops' expressions
  };

  const FlatDef& flat_def(const std::string& name, int line, int column);
  void flatten_into(int line, int column, const GateDef& def,
                    const std::vector<const Expr*>& bindings,
                    const std::vector<std::int32_t>& slots, int depth,
                    FlatDef& out);
  void push_u3_op(const std::vector<const Expr*>& params, std::int32_t slot,
                  FlatDef& out);

  StreamLexer lexer_;
  Token current_;
  Token prev_;  // slot advance() hands back; reused to avoid allocation
  GateStreamVisitor* visitor_ = nullptr;
  std::map<std::string, Register> qregs_;
  std::map<std::string, Register> cregs_;
  GateTable gate_defs_;
  std::map<std::string, FlatDef> flat_defs_;
  const FlatDef* last_def_ = nullptr;  // memo for runs of the same gate name
  std::string last_def_name_;
  std::vector<double> params_scratch_;
  std::vector<QubitArg> args_scratch_;
  std::string call_name_;  // gate-call name, reused across statements
  std::int32_t n_qubits_ = 0;
  std::int32_t n_clbits_ = 0;
  std::uint64_t n_gates_ = 0;
  bool qelib_loaded_ = false;
  // True once a gate of that name is defined; avoids a definition-table
  // lookup per cz/swap call (the dominant statement kind in real corpora).
  bool cz_is_native_ = false;
  bool swap_is_native_ = false;
};

}  // namespace parallax::qasm
