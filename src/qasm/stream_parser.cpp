#include "qasm/stream_parser.hpp"

#include <cmath>
#include <limits>
#include <numbers>
#include <numeric>
#include <optional>

#include "qasm/lexer.hpp"
#include "qasm/stdgates.hpp"

namespace parallax::qasm {

namespace {

// Functions Expr::eval can apply; checked at parse time so a bad call site
// is reported with its position instead of failing at first macro expansion.
bool is_known_function(const std::string& name) {
  return name == "sin" || name == "cos" || name == "tan" || name == "exp" ||
         name == "ln" || name == "sqrt";
}

double apply_function(const std::string& name, double v) {
  if (name == "sin") return std::sin(v);
  if (name == "cos") return std::cos(v);
  if (name == "tan") return std::tan(v);
  if (name == "exp") return std::exp(v);
  if (name == "ln") return std::log(v);
  return std::sqrt(v);  // validated against is_known_function by the caller
}

/// A register size or index as an int32, checked before the cast: NaN, a
/// fraction, a negative value or one above INT32_MAX gives nullopt.
std::optional<std::int32_t> whole_int32(double value) {
  constexpr double kMax = std::numeric_limits<std::int32_t>::max();
  if (!(value >= 0.0 && value <= kMax) || value != std::trunc(value)) {
    return std::nullopt;
  }
  return static_cast<std::int32_t>(value);
}

ExprPtr clone_expr(const Expr& e) {
  auto node = std::make_unique<Expr>();
  node->kind = e.kind;
  node->number = e.number;
  node->param_index = e.param_index;
  node->func = e.func;
  if (e.lhs) node->lhs = clone_expr(*e.lhs);
  if (e.rhs) node->rhs = clone_expr(*e.rhs);
  return node;
}

/// Rewrites formal-parameter references through `bindings`, producing an
/// expression over the bindings' own formals.
ExprPtr substitute_expr(const Expr& e, const std::vector<const Expr*>& bindings) {
  if (e.kind == Expr::Kind::kParam) {
    return clone_expr(*bindings.at(static_cast<std::size_t>(e.param_index)));
  }
  auto node = std::make_unique<Expr>();
  node->kind = e.kind;
  node->number = e.number;
  node->param_index = e.param_index;
  node->func = e.func;
  if (e.lhs) node->lhs = substitute_expr(*e.lhs, bindings);
  if (e.rhs) node->rhs = substitute_expr(*e.rhs, bindings);
  return node;
}

bool has_param(const Expr& e) {
  if (e.kind == Expr::Kind::kParam) return true;
  if (e.lhs && has_param(*e.lhs)) return true;
  return e.rhs && has_param(*e.rhs);
}

}  // namespace

circuit::Circuit CircuitBuilder::take(std::string name,
                                      const StreamTotals& totals) {
  circuit::Circuit circuit(totals.n_qubits, std::move(name));
  circuit.replace_gates(std::move(gates_));
  gates_.clear();
  return circuit;
}

StreamParser::StreamParser(std::istream& in, std::string source_name)
    : lexer_(in, std::move(source_name)) {
  lexer_.next(current_);
}

StreamTotals StreamParser::run(GateStreamVisitor& visitor) {
  visitor_ = &visitor;
  parse_header();
  while (!check(TokenKind::kEof)) parse_statement();
  visitor_ = nullptr;
  return StreamTotals{n_qubits_, n_clbits_, n_gates_, lexer_.bytes_read()};
}

// --- token plumbing ---------------------------------------------------------

const Token& StreamParser::advance() {
  if (current_.kind == TokenKind::kEof) return current_;
  std::swap(current_, prev_);
  lexer_.next(current_);
  return prev_;
}

const Token& StreamParser::expect(TokenKind kind, std::string_view what) {
  if (!check(kind)) mismatch(what);
  return advance();
}

void StreamParser::require(TokenKind kind, std::string_view what) {
  if (!check(kind)) mismatch(what);
  if (current_.kind != TokenKind::kEof) skip();
}

void StreamParser::mismatch(std::string_view what) const {
  error("expected " + std::string(what) + ", got " +
            to_string(current_.kind) +
            (current_.text.empty() ? "" : " '" + current_.text + "'"),
        current_.line, current_.column);
}

void StreamParser::error(const std::string& message, int line,
                         int column) const {
  throw ParseError(message, lexer_.source_name(), line, column);
}

void StreamParser::fail(std::string_view message) const {
  std::string msg(message);
  if (current_.kind != TokenKind::kEof && !current_.text.empty()) {
    msg += " at '" + current_.text + "'";
  }
  error(msg, current_.line, current_.column);
}

// --- top level ---------------------------------------------------------------

void StreamParser::parse_header() {
  // The OPENQASM header is optional in practice (some emitted files omit
  // it); accept and validate it when present.
  if (check_ident("OPENQASM")) {
    skip();
    const Token version = expect(TokenKind::kNumber, "version number");
    if (version.value < 2.0 || version.value >= 3.0) {
      error("unsupported OPENQASM version " + version.text, version.line,
            version.column);
    }
    require(TokenKind::kSemicolon, "';'");
  }
}

void StreamParser::parse_statement() {
  if (check(TokenKind::kIdentifier)) {
    // Dispatch on the first character before comparing whole keywords: in a
    // million-gate file nearly every statement is a gate call, and this keeps
    // the common path to one switch plus at most two short compares.
    switch (current_.text[0]) {
      case 'i':
        if (check_ident("include")) return parse_include();
        if (check_ident("if")) fail("classical control (if) is not supported");
        break;
      case 'q':
        if (check_ident("qreg")) return parse_reg(/*quantum=*/true);
        break;
      case 'c':
        if (check_ident("creg")) return parse_reg(/*quantum=*/false);
        break;
      case 'g':
        if (check_ident("gate")) return parse_gate_def(/*opaque=*/false);
        break;
      case 'o':
        if (check_ident("opaque")) return parse_gate_def(/*opaque=*/true);
        break;
      case 'm':
        if (check_ident("measure")) return parse_measure();
        break;
      case 'b':
        if (check_ident("barrier")) return parse_barrier();
        break;
      case 'r':
        if (check_ident("reset")) fail("reset is not supported");
        break;
      default:
        break;
    }
    return parse_gate_call();
  }
  fail("unexpected token");
}

void StreamParser::parse_include() {
  skip();  // include
  const Token file = expect(TokenKind::kString, "file name");
  require(TokenKind::kSemicolon, "';'");
  if (file.text == "qelib1.inc") {
    if (!qelib_loaded_) {
      load_library();
      qelib_loaded_ = true;
    }
    return;
  }
  error("cannot include '" + file.text +
            "' (only the embedded qelib1.inc is available)",
        file.line, file.column);
}

const StreamParser::GateTable& StreamParser::qelib1_defs() {
  // Parsed once per process by a nested parser; the library contains only
  // gate definitions.
  static const GateTable defs = [] {
    ViewStreamBuf buf(qelib1_source());
    std::istream in(&buf);
    StreamParser lib(in, "qelib1");
    while (!lib.check(TokenKind::kEof)) {
      if (lib.check_ident("gate")) {
        lib.parse_gate_def(false);
      } else if (lib.check_ident("opaque")) {
        lib.parse_gate_def(true);
      } else {
        lib.fail("library may contain only gate definitions");
      }
    }
    return std::move(lib.gate_defs_);
  }();
  return defs;
}

void StreamParser::load_library() {
  // The library's definitions replace earlier ones of the same name; later
  // definitions replace the library's.
  const GateTable& library = qelib1_defs();
  for (const auto& [name, def] : library) gate_defs_[name] = def;
  cz_is_native_ |= library.count("cz") != 0;
  swap_is_native_ |= library.count("swap") != 0;
  flat_defs_.clear();
  last_def_ = nullptr;
}

void StreamParser::parse_reg(bool quantum) {
  skip();  // qreg / creg
  const Token name = expect(TokenKind::kIdentifier, "register name");
  require(TokenKind::kLBracket, "'['");
  const Token size = expect(TokenKind::kNumber, "register size");
  require(TokenKind::kRBracket, "']'");
  require(TokenKind::kSemicolon, "';'");
  const std::optional<std::int32_t> checked = whole_int32(size.value);
  if (!checked || *checked == 0) {
    error("register size must be a positive integer below 2^31", size.line,
          size.column);
  }
  const std::int32_t n = *checked;
  auto& table = quantum ? qregs_ : cregs_;
  if (table.count(name.text) || (quantum ? cregs_ : qregs_).count(name.text)) {
    error("duplicate register '" + name.text + "'", name.line, name.column);
  }
  auto& total = quantum ? n_qubits_ : n_clbits_;
  if (n > std::numeric_limits<std::int32_t>::max() - total) {
    error(std::string("register '") + name.text + "' takes the " +
              (quantum ? "qubit" : "clbit") + " count past 2^31 - 1",
          size.line, size.column);
  }
  table[name.text] = Register{total, n};
  total += n;
}

// --- gate definitions --------------------------------------------------------

void StreamParser::parse_gate_def(bool opaque) {
  skip();  // gate / opaque
  const Token name = expect(TokenKind::kIdentifier, "gate name");
  GateDef def;
  def.name = name.text;
  def.opaque = opaque;

  std::map<std::string, int> param_slots;
  if (check(TokenKind::kLParen)) {
    skip();
    if (!check(TokenKind::kRParen)) {
      for (;;) {
        const Token p = expect(TokenKind::kIdentifier, "parameter name");
        param_slots[p.text] = def.n_params++;
        if (!check(TokenKind::kComma)) break;
        skip();
      }
    }
    require(TokenKind::kRParen, "')'");
  }

  std::map<std::string, int> arg_slots;
  for (;;) {
    const Token a = expect(TokenKind::kIdentifier, "qubit argument");
    arg_slots[a.text] = def.n_qubits++;
    if (!check(TokenKind::kComma)) break;
    skip();
  }

  if (opaque) {
    require(TokenKind::kSemicolon, "';'");
  } else {
    require(TokenKind::kLBrace, "'{'");
    while (!check(TokenKind::kRBrace)) {
      def.body.push_back(parse_body_statement(param_slots, arg_slots));
    }
    require(TokenKind::kRBrace, "'}'");
  }

  if (def.name == "cz") cz_is_native_ = true;
  if (def.name == "swap") swap_is_native_ = true;
  auto& slot = gate_defs_[def.name];
  slot = std::make_shared<const GateDef>(std::move(def));
  // A (re)definition can change what an already-flattened gate expands to.
  flat_defs_.clear();
  last_def_ = nullptr;
}

BodyStatement StreamParser::parse_body_statement(
    const std::map<std::string, int>& param_slots,
    const std::map<std::string, int>& arg_slots) {
  BodyStatement stmt;
  if (check_ident("barrier")) {
    skip();
    stmt.is_barrier = true;
    // Consume (and ignore) the argument list.
    while (!check(TokenKind::kSemicolon) && !check(TokenKind::kEof)) skip();
    require(TokenKind::kSemicolon, "';'");
    return stmt;
  }
  const Token name = expect(TokenKind::kIdentifier, "gate name");
  stmt.gate_name = name.text;
  if (check(TokenKind::kLParen)) {
    skip();
    if (!check(TokenKind::kRParen)) {
      for (;;) {
        stmt.params.push_back(parse_expr(&param_slots));
        if (!check(TokenKind::kComma)) break;
        skip();
      }
    }
    require(TokenKind::kRParen, "')'");
  }
  for (;;) {
    const Token a = expect(TokenKind::kIdentifier, "qubit argument");
    const auto it = arg_slots.find(a.text);
    if (it == arg_slots.end()) {
      error("unknown qubit argument '" + a.text + "'", a.line, a.column);
    }
    stmt.argument_slots.push_back(it->second);
    if (!check(TokenKind::kComma)) break;
    skip();
  }
  require(TokenKind::kSemicolon, "';'");
  return stmt;
}

// --- parameter expressions ---------------------------------------------------
// Grammar: expr := term (('+'|'-') term)*
//          term := factor (('*'|'/') factor)*
//          factor := unary ('^' factor)?          (right-assoc)
//          unary := '-' unary | primary
//          primary := number | pi | param | func '(' expr ')' | '(' expr ')'

ExprPtr StreamParser::parse_expr(
    const std::map<std::string, int>* param_slots) {
  ExprPtr lhs = parse_term(param_slots);
  while (check(TokenKind::kPlus) || check(TokenKind::kMinus)) {
    const bool add = check(TokenKind::kPlus);
    skip();
    auto node = std::make_unique<Expr>();
    node->kind = add ? Expr::Kind::kAdd : Expr::Kind::kSub;
    node->lhs = std::move(lhs);
    node->rhs = parse_term(param_slots);
    lhs = std::move(node);
  }
  return lhs;
}

ExprPtr StreamParser::parse_term(
    const std::map<std::string, int>* param_slots) {
  ExprPtr lhs = parse_factor(param_slots);
  while (check(TokenKind::kStar) || check(TokenKind::kSlash)) {
    const bool mul = check(TokenKind::kStar);
    skip();
    auto node = std::make_unique<Expr>();
    node->kind = mul ? Expr::Kind::kMul : Expr::Kind::kDiv;
    node->lhs = std::move(lhs);
    node->rhs = parse_factor(param_slots);
    lhs = std::move(node);
  }
  return lhs;
}

ExprPtr StreamParser::parse_factor(
    const std::map<std::string, int>* param_slots) {
  ExprPtr base = parse_unary(param_slots);
  if (check(TokenKind::kCaret)) {
    skip();
    auto node = std::make_unique<Expr>();
    node->kind = Expr::Kind::kPow;
    node->lhs = std::move(base);
    node->rhs = parse_factor(param_slots);  // right associative
    return node;
  }
  return base;
}

ExprPtr StreamParser::parse_unary(
    const std::map<std::string, int>* param_slots) {
  if (check(TokenKind::kMinus)) {
    skip();
    auto node = std::make_unique<Expr>();
    node->kind = Expr::Kind::kNegate;
    node->lhs = parse_unary(param_slots);
    return node;
  }
  return parse_primary(param_slots);
}

ExprPtr StreamParser::parse_primary(
    const std::map<std::string, int>* param_slots) {
  if (check(TokenKind::kNumber)) {
    auto node = std::make_unique<Expr>();
    node->kind = Expr::Kind::kNumber;
    node->number = advance().value;
    return node;
  }
  if (check(TokenKind::kLParen)) {
    skip();
    ExprPtr inner = parse_expr(param_slots);
    require(TokenKind::kRParen, "')'");
    return inner;
  }
  if (check(TokenKind::kIdentifier)) {
    const Token id = advance();
    if (id.text == "pi") {
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kNumber;
      node->number = std::numbers::pi;
      return node;
    }
    if (check(TokenKind::kLParen)) {  // function call
      skip();
      auto node = std::make_unique<Expr>();
      node->kind = Expr::Kind::kCall;
      node->func = id.text;
      node->lhs = parse_expr(param_slots);
      require(TokenKind::kRParen, "')'");
      if (!is_known_function(node->func)) {
        error("unknown function '" + node->func + "'", id.line, id.column);
      }
      return node;
    }
    if (param_slots != nullptr) {
      const auto it = param_slots->find(id.text);
      if (it != param_slots->end()) {
        auto node = std::make_unique<Expr>();
        node->kind = Expr::Kind::kParam;
        node->param_index = it->second;
        return node;
      }
    }
    error("unknown identifier '" + id.text + "' in expression", id.line,
          id.column);
  }
  fail("expected expression");
}

// Statement-level parameter expressions contain no formal parameters, so
// they are evaluated inline while parsing — no tree is built. Grammar and
// error behaviour mirror parse_expr(nullptr).

double StreamParser::parse_const_expr() {
  // Fast path: a bare numeric literal, the overwhelmingly common shape of a
  // statement-level parameter. A literal followed by an operator re-enters
  // the grammar through the tail helpers with the literal as leading factor.
  if (check(TokenKind::kNumber)) {
    const double v = current_.value;
    skip();
    const TokenKind k = current_.kind;
    if (k == TokenKind::kComma || k == TokenKind::kRParen) return v;
    return const_expr_tail(const_term_tail(const_factor_tail(v)));
  }
  return const_expr_tail(parse_const_term());
}

double StreamParser::const_expr_tail(double lhs) {
  while (check(TokenKind::kPlus) || check(TokenKind::kMinus)) {
    const bool add = check(TokenKind::kPlus);
    skip();
    const double rhs = parse_const_term();
    lhs = add ? lhs + rhs : lhs - rhs;
  }
  return lhs;
}

double StreamParser::parse_const_term() {
  return const_term_tail(parse_const_factor());
}

double StreamParser::const_term_tail(double lhs) {
  while (check(TokenKind::kStar) || check(TokenKind::kSlash)) {
    const bool mul = check(TokenKind::kStar);
    skip();
    const double rhs = parse_const_factor();
    lhs = mul ? lhs * rhs : lhs / rhs;
  }
  return lhs;
}

double StreamParser::parse_const_factor() {
  return const_factor_tail(parse_const_unary());
}

double StreamParser::const_factor_tail(double base) {
  if (check(TokenKind::kCaret)) {
    skip();
    return std::pow(base, parse_const_factor());  // right associative
  }
  return base;
}

double StreamParser::parse_const_unary() {
  if (check(TokenKind::kMinus)) {
    skip();
    return -parse_const_unary();
  }
  return parse_const_primary();
}

double StreamParser::parse_const_primary() {
  if (check(TokenKind::kNumber)) {
    const double v = current_.value;
    skip();
    return v;
  }
  if (check(TokenKind::kLParen)) {
    skip();
    const double inner = parse_const_expr();
    require(TokenKind::kRParen, "')'");
    return inner;
  }
  if (check(TokenKind::kIdentifier)) {
    if (current_.text == "pi") {
      skip();
      return std::numbers::pi;
    }
    const Token id = advance();
    if (check(TokenKind::kLParen)) {  // function call
      skip();
      const double inner = parse_const_expr();
      require(TokenKind::kRParen, "')'");
      if (!is_known_function(id.text)) {
        error("unknown function '" + id.text + "'", id.line, id.column);
      }
      return apply_function(id.text, inner);
    }
    error("unknown identifier '" + id.text + "' in expression", id.line,
          id.column);
  }
  fail("expected expression");
}

// --- statement-level gate calls ----------------------------------------------

StreamParser::QubitArg StreamParser::parse_qubit_arg() {
  // The register name is looked up before consuming the token, so neither
  // the name nor its position is ever copied on the success path.
  if (!check(TokenKind::kIdentifier)) mismatch("register name");
  const auto it = qregs_.find(current_.text);
  if (it == qregs_.end()) {
    error("unknown quantum register '" + current_.text + "'", current_.line,
          current_.column);
  }
  skip();
  const Register& reg = it->second;
  if (check(TokenKind::kLBracket)) {
    return QubitArg{reg.offset + parse_index(it->first, reg), 1};
  }
  return QubitArg{reg.offset, reg.size};
}

std::pair<std::int32_t, std::int32_t> StreamParser::parse_clbit_arg() {
  if (!check(TokenKind::kIdentifier)) mismatch("register name");
  const auto it = cregs_.find(current_.text);
  if (it == cregs_.end()) {
    error("unknown classical register '" + current_.text + "'", current_.line,
          current_.column);
  }
  skip();
  const Register& reg = it->second;
  if (check(TokenKind::kLBracket)) {
    return {reg.offset + parse_index(it->first, reg), 1};
  }
  return {reg.offset, reg.size};
}

std::int32_t StreamParser::parse_index(const std::string& name,
                                       const Register& reg) {
  skip();  // [
  if (!check(TokenKind::kNumber)) mismatch("index");
  const std::optional<std::int32_t> i = whole_int32(current_.value);
  const int idx_line = current_.line;
  const int idx_column = current_.column;
  if (!i) {
    error("index must be a non-negative integer below 2^31", idx_line,
          idx_column);
  }
  skip();
  require(TokenKind::kRBracket, "']'");
  if (*i >= reg.size) {
    error("index out of range for '" + name + "'", idx_line, idx_column);
  }
  return *i;
}

void StreamParser::parse_measure() {
  const int kw_line = current_.line;
  const int kw_column = current_.column;
  skip();  // measure
  const QubitArg src = parse_qubit_arg();
  require(TokenKind::kArrow, "'->'");
  const auto [clbit, clcount] = parse_clbit_arg();
  (void)clbit;
  require(TokenKind::kSemicolon, "';'");
  if (src.count > 1 && clcount > 1 && src.count != clcount) {
    error("measure register size mismatch", kw_line, kw_column);
  }
  check_gate_cap(static_cast<std::uint64_t>(src.count), kw_line, kw_column);
  for (std::int32_t i = 0; i < src.count; ++i) {
    emit(circuit::Gate::measure(src.at(i)));
  }
}

void StreamParser::parse_barrier() {
  const int kw_line = current_.line;
  const int kw_column = current_.column;
  skip();  // barrier
  // Arguments are parsed but the barrier applies circuit-wide in our IR
  // (a conservative over-approximation that never reorders illegally).
  if (!check(TokenKind::kSemicolon)) {
    for (;;) {
      (void)parse_qubit_arg();
      if (!check(TokenKind::kComma)) break;
      skip();
    }
  }
  require(TokenKind::kSemicolon, "';'");
  check_gate_cap(1, kw_line, kw_column);
  emit(circuit::Gate::barrier());
}

void StreamParser::parse_gate_call() {
  call_name_.assign(current_.text);
  const int name_line = current_.line;
  const int name_column = current_.column;
  skip();
  params_scratch_.clear();
  if (check(TokenKind::kLParen)) {
    skip();
    if (!check(TokenKind::kRParen)) {
      for (;;) {
        params_scratch_.push_back(parse_const_expr());
        if (!check(TokenKind::kComma)) break;
        skip();
      }
    }
    require(TokenKind::kRParen, "')'");
  }
  args_scratch_.clear();
  for (;;) {
    args_scratch_.push_back(parse_qubit_arg());
    if (!check(TokenKind::kComma)) break;
    skip();
  }
  require(TokenKind::kSemicolon, "';'");

  // QASM2 broadcasting: whole registers iterate in lockstep; sizes of all
  // whole-register arguments must match.
  std::int32_t broadcast = 1;
  for (const QubitArg& a : args_scratch_) {
    if (a.count > 1) {
      if (broadcast != 1 && broadcast != a.count) {
        error("mismatched register sizes in gate call", name_line,
              name_column);
      }
      broadcast = a.count;
    }
  }

  const std::vector<double>& params = params_scratch_;
  const std::vector<QubitArg>& args = args_scratch_;
  // Checks the call's arity, then that its `per_call` gates per broadcast
  // element fit the cap.
  auto need = [&](std::size_t n_params, std::size_t n_qubits,
                  std::uint64_t per_call) {
    if (params.size() != n_params || args.size() != n_qubits) {
      error("wrong arity for gate '" + call_name_ + "'", name_line,
            name_column);
    }
    check_gate_cap(static_cast<std::uint64_t>(broadcast) * per_call,
                   name_line, name_column);
  };

  // Builtins.
  if (call_name_ == "U") {
    need(3, 1, 1);
    for (std::int32_t i = 0; i < broadcast; ++i) {
      emit(circuit::Gate::u3(args[0].at(i), params[0], params[1], params[2]));
    }
    return;
  }
  if (call_name_ == "CX") {
    need(0, 2, 3);
    for (std::int32_t i = 0; i < broadcast; ++i) {
      emit_cx(args[0].at(i), args[1].at(i));
    }
    return;
  }
  // Native-gate interception: cz and swap map 1:1 onto the hardware IR, so
  // expanding their qelib1 macro bodies would only add cancellable H pairs.
  if (cz_is_native_ && call_name_ == "cz") {
    need(0, 2, 1);
    for (std::int32_t i = 0; i < broadcast; ++i) {
      emit(circuit::Gate::cz(args[0].at(i), args[1].at(i)));
    }
    return;
  }
  if (swap_is_native_ && call_name_ == "swap") {
    need(0, 2, 1);
    for (std::int32_t i = 0; i < broadcast; ++i) {
      emit(circuit::Gate::swap(args[0].at(i), args[1].at(i)));
    }
    return;
  }

  // Runs of the same gate name skip even the flat-definition map lookup.
  if (last_def_ == nullptr || call_name_ != last_def_name_) {
    last_def_ = &flat_def(call_name_, name_line, name_column);
    last_def_name_.assign(call_name_);
  }
  const FlatDef& def = *last_def_;
  if (static_cast<int>(params.size()) != def.n_params ||
      static_cast<int>(args.size()) != def.n_qubits) {
    error("wrong arity for gate '" + call_name_ + "'", name_line, name_column);
  }
  check_gate_cap(static_cast<std::uint64_t>(broadcast) * def.ops.size(),
                 name_line, name_column);
  for (std::int32_t i = 0; i < broadcast; ++i) {
    for (const FlatOp& op : def.ops) {
      switch (op.kind) {
        case FlatOp::Kind::kU3: {
          const double theta = op.e[0] ? op.e[0]->eval(params) : op.c[0];
          const double phi = op.e[1] ? op.e[1]->eval(params) : op.c[1];
          const double lambda = op.e[2] ? op.e[2]->eval(params) : op.c[2];
          emit(circuit::Gate::u3(
              args[static_cast<std::size_t>(op.q0)].at(i), theta, phi,
              lambda));
          break;
        }
        case FlatOp::Kind::kCZ:
          emit(circuit::Gate::cz(args[static_cast<std::size_t>(op.q0)].at(i),
                                 args[static_cast<std::size_t>(op.q1)].at(i)));
          break;
        case FlatOp::Kind::kSwap:
          emit(
              circuit::Gate::swap(args[static_cast<std::size_t>(op.q0)].at(i),
                                  args[static_cast<std::size_t>(op.q1)].at(i)));
          break;
      }
    }
  }
}

// --- macro flattening --------------------------------------------------------

const StreamParser::FlatDef& StreamParser::flat_def(const std::string& name,
                                                    int line, int column) {
  const auto cached = flat_defs_.find(name);
  if (cached != flat_defs_.end()) return cached->second;

  const auto it = gate_defs_.find(name);
  if (it == gate_defs_.end()) {
    error("unknown gate '" + name + "'", line, column);
  }
  const GateDef& def = *it->second;
  if (def.opaque) {
    error("cannot expand opaque gate '" + name + "'", line, column);
  }

  FlatDef flat;
  flat.n_params = def.n_params;
  flat.n_qubits = def.n_qubits;
  // Identity bindings: the body's formal references stay formal references.
  std::vector<const Expr*> bindings;
  bindings.reserve(static_cast<std::size_t>(def.n_params));
  for (int p = 0; p < def.n_params; ++p) {
    auto id = std::make_unique<Expr>();
    id->kind = Expr::Kind::kParam;
    id->param_index = p;
    bindings.push_back(id.get());
    flat.owned.push_back(std::move(id));
  }
  std::vector<std::int32_t> slots(static_cast<std::size_t>(def.n_qubits));
  std::iota(slots.begin(), slots.end(), 0);
  flatten_into(line, column, def, bindings, slots, /*depth=*/0, flat);
  return flat_defs_.emplace(name, std::move(flat)).first->second;
}

void StreamParser::push_u3_op(const std::vector<const Expr*>& params,
                              std::int32_t slot, FlatDef& out) {
  FlatOp op;
  op.kind = FlatOp::Kind::kU3;
  op.q0 = slot;
  for (std::size_t k = 0; k < 3; ++k) {
    if (has_param(*params[k])) {
      op.e[k] = params[k];
    } else {
      op.c[k] = params[k]->eval({});
    }
  }
  out.ops.push_back(op);
}

void StreamParser::flatten_into(int line, int column, const GateDef& def,
                                const std::vector<const Expr*>& bindings,
                                const std::vector<std::int32_t>& slots,
                                int depth, FlatDef& out) {
  if (depth > 64) {
    error("gate expansion too deep (recursive definition?)", line, column);
  }
  for (const BodyStatement& stmt : def.body) {
    if (stmt.is_barrier) continue;  // intra-macro barriers are ignored

    // Rewrite this statement's parameter expressions over the root formals.
    std::vector<const Expr*> sub_exprs;
    sub_exprs.reserve(stmt.params.size());
    for (const ExprPtr& e : stmt.params) {
      ExprPtr s = substitute_expr(*e, bindings);
      sub_exprs.push_back(s.get());
      out.owned.push_back(std::move(s));
    }
    std::vector<std::int32_t> sub_slots;
    sub_slots.reserve(stmt.argument_slots.size());
    for (int slot : stmt.argument_slots) {
      sub_slots.push_back(slots[static_cast<std::size_t>(slot)]);
    }

    const std::string& gname = stmt.gate_name;
    auto arity = [&](std::size_t n_params, std::size_t n_qubits) {
      if (sub_exprs.size() != n_params || sub_slots.size() != n_qubits) {
        error("wrong arity for gate '" + gname + "'", line, column);
      }
    };

    if (gname == "U") {
      arity(3, 1);
      push_u3_op(sub_exprs, sub_slots[0], out);
      continue;
    }
    if (gname == "CX") {
      arity(0, 2);
      constexpr double kPi = std::numbers::pi;
      FlatOp h;  // H on the target, constant-folded
      h.kind = FlatOp::Kind::kU3;
      h.q0 = sub_slots[1];
      h.c[0] = kPi / 2;
      h.c[2] = kPi;
      FlatOp cz;
      cz.kind = FlatOp::Kind::kCZ;
      cz.q0 = sub_slots[0];
      cz.q1 = sub_slots[1];
      out.ops.push_back(h);
      out.ops.push_back(cz);
      out.ops.push_back(h);
      continue;
    }
    if ((gname == "cz" || gname == "swap") && gate_defs_.count(gname)) {
      arity(0, 2);
      FlatOp op;
      op.kind = gname == "cz" ? FlatOp::Kind::kCZ : FlatOp::Kind::kSwap;
      op.q0 = sub_slots[0];
      op.q1 = sub_slots[1];
      out.ops.push_back(op);
      continue;
    }

    const auto it = gate_defs_.find(gname);
    if (it == gate_defs_.end()) {
      error("unknown gate '" + gname + "'", line, column);
    }
    const GateDef& callee = *it->second;
    if (callee.opaque) {
      error("cannot expand opaque gate '" + gname + "'", line, column);
    }
    if (static_cast<int>(sub_exprs.size()) != callee.n_params ||
        static_cast<int>(sub_slots.size()) != callee.n_qubits) {
      error("wrong arity for gate '" + gname + "'", line, column);
    }
    flatten_into(line, column, callee, sub_exprs, sub_slots, depth + 1, out);
  }
}

void StreamParser::check_gate_cap(std::uint64_t count, int line,
                                  int column) const {
  const std::uint64_t cap = visitor_->max_gates();
  if (count > cap - n_gates_) {
    error("statement would exceed the limit of " + std::to_string(cap) +
              " gates per parsed circuit",
          line, column);
  }
}

void StreamParser::emit(const circuit::Gate& gate) {
  ++n_gates_;
  visitor_->on_gate(gate);
}

void StreamParser::emit_cx(std::int32_t control, std::int32_t target) {
  constexpr double kPi = std::numbers::pi;
  emit(circuit::Gate::u3(target, kPi / 2, 0.0, kPi));  // H
  emit(circuit::Gate::cz(control, target));
  emit(circuit::Gate::u3(target, kPi / 2, 0.0, kPi));  // H
}

}  // namespace parallax::qasm
