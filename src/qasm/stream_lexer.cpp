#include "qasm/stream_lexer.hpp"

#include <array>
#include <charconv>
#include <cstring>

#include "qasm/lexer.hpp"

namespace parallax::qasm {

namespace {

// Locale-independent character classes (QASM 2.0 source is ASCII), folded
// into one 256-entry flag table: the scanning loops below run once per byte
// of a potentially multi-hundred-MB file, and a single indexed load beats a
// chain of range compares there.
constexpr unsigned char kSpaceF = 1u;       // whitespace, including '\n'
constexpr unsigned char kDigitF = 2u;       // [0-9]
constexpr unsigned char kIdentStartF = 4u;  // [A-Za-z_]
constexpr unsigned char kIdentCharF = 8u;   // ident start or digit

constexpr std::array<unsigned char, 256> make_class_table() {
  std::array<unsigned char, 256> t{};
  for (const char c : {' ', '\t', '\n', '\v', '\f', '\r'}) {
    t[static_cast<unsigned char>(c)] |= kSpaceF;
  }
  for (int c = '0'; c <= '9'; ++c) t[c] |= kDigitF | kIdentCharF;
  for (int c = 'a'; c <= 'z'; ++c) t[c] |= kIdentStartF | kIdentCharF;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] |= kIdentStartF | kIdentCharF;
  t[static_cast<unsigned char>('_')] |= kIdentStartF | kIdentCharF;
  return t;
}
constexpr std::array<unsigned char, 256> kClass = make_class_table();

constexpr bool is_space(char c) noexcept {
  return kClass[static_cast<unsigned char>(c)] & kSpaceF;
}
constexpr bool is_digit(char c) noexcept {
  return kClass[static_cast<unsigned char>(c)] & kDigitF;
}
constexpr bool is_ident_start(char c) noexcept {
  return kClass[static_cast<unsigned char>(c)] & kIdentStartF;
}
constexpr bool is_ident_char(char c) noexcept {
  return kClass[static_cast<unsigned char>(c)] & kIdentCharF;
}

}  // namespace

StreamLexer::StreamLexer(std::istream& in, std::string source_name)
    : src_(in.rdbuf()), source_name_(std::move(source_name)) {
  buf_.resize(kBufferSize);
}

bool StreamLexer::refill() {
  const std::size_t tail = end_ - pos_;
  if (tail > 0 && pos_ > 0) std::memmove(buf_.data(), buf_.data() + pos_, tail);
  pos_ = 0;
  end_ = tail;
  if (src_ != nullptr) {
    const std::streamsize got = src_->sgetn(
        buf_.data() + end_, static_cast<std::streamsize>(buf_.size() - end_));
    if (got > 0) {
      end_ += static_cast<std::size_t>(got);
      bytes_read_ += static_cast<std::uint64_t>(got);
    } else {
      src_ = nullptr;  // exhausted: stop issuing virtual reads
    }
  }
  return pos_ < end_;
}

char StreamLexer::peek(std::size_t ahead) {
  if (pos_ + ahead >= end_) {
    refill();
    if (pos_ + ahead >= end_) return '\0';
  }
  return buf_[pos_ + ahead];
}

char StreamLexer::advance() {
  const char c = buf_[pos_++];
  if (c == '\n') {
    ++line_;
    column_ = 1;
  } else {
    ++column_;
  }
  return c;
}

void StreamLexer::skip_whitespace_and_comments() {
  for (;;) {
    // Bulk-skip whitespace over the buffered span with the cursor cached in
    // locals: buf_/pos_/line_/column_ are members, and per-byte stores to
    // them would force reloads (they may alias the buffer) in this loop,
    // which runs for every byte between tokens.
    {
      const char* data = buf_.data();
      const std::size_t end = end_;
      std::size_t p = pos_;
      int line = line_;
      int column = column_;
      while (p < end) {
        const char c = data[p];
        if (c == '\n') {
          ++p;
          ++line;
          column = 1;
        } else if (is_space(c)) {
          ++p;
          ++column;
        } else {
          break;
        }
      }
      pos_ = p;
      line_ = line;
      column_ = column;
    }
    if (pos_ >= end_) {
      if (!refill()) return;
      continue;
    }
    if (buf_[pos_] == '/' && peek(1) == '/') {
      // Columns inside a comment are never observed (the comment either ends
      // at a newline, which resets them, or at EOF), so only pos_ advances.
      while ((pos_ < end_ || refill()) && buf_[pos_] != '\n') ++pos_;
      continue;
    }
    return;
  }
}

void StreamLexer::next(Token& out) {
  skip_whitespace_and_comments();
  out.line = line_;
  out.column = column_;
  out.value = 0.0;
  if (at_end()) {
    out.kind = TokenKind::kEof;
    out.text.clear();
    return;
  }
  next_token(out);
}

void StreamLexer::next_token(Token& out) {
  const char c = buf_[pos_];

  if (is_ident_start(c)) {
    out.kind = TokenKind::kIdentifier;
    out.text.clear();
    for (;;) {
      const char* data = buf_.data();
      const std::size_t end = end_;
      const std::size_t start = pos_;
      std::size_t p = start;
      while (p < end && is_ident_char(data[p])) ++p;
      out.text.append(data + start, p - start);
      column_ += static_cast<int>(p - start);
      pos_ = p;
      if (p < end) break;
      if (!refill()) break;
    }
    return;
  }

  if (is_digit(c) || (c == '.' && is_digit(peek(1)))) {
    lex_number(out);
    return;
  }

  if (c == '"') {
    const int line = out.line;
    const int column = out.column;
    advance();
    out.kind = TokenKind::kString;
    out.text.clear();
    while (!at_end() && buf_[pos_] != '"') out.text += advance();
    if (at_end()) {
      throw ParseError("unterminated string", source_name_, line, column);
    }
    advance();  // closing quote
    return;
  }

  advance();
  auto simple = [&](TokenKind kind, std::string_view text) {
    out.kind = kind;
    out.text.clear();
    out.text.append(text);
  };
  switch (c) {
    case '(': return simple(TokenKind::kLParen, "(");
    case ')': return simple(TokenKind::kRParen, ")");
    case '{': return simple(TokenKind::kLBrace, "{");
    case '}': return simple(TokenKind::kRBrace, "}");
    case '[': return simple(TokenKind::kLBracket, "[");
    case ']': return simple(TokenKind::kRBracket, "]");
    case ';': return simple(TokenKind::kSemicolon, ";");
    case ',': return simple(TokenKind::kComma, ",");
    case '+': return simple(TokenKind::kPlus, "+");
    case '*': return simple(TokenKind::kStar, "*");
    case '/': return simple(TokenKind::kSlash, "/");
    case '^': return simple(TokenKind::kCaret, "^");
    case '-':
      if (peek() == '>') {
        advance();
        return simple(TokenKind::kArrow, "->");
      }
      return simple(TokenKind::kMinus, "-");
    case '=':
      if (peek() == '=') {
        advance();
        return simple(TokenKind::kEqualEqual, "==");
      }
      throw ParseError("unexpected '='", source_name_, out.line, out.column);
    default:
      throw ParseError(std::string("unexpected character '") + c + "'",
                       source_name_, out.line, out.column);
  }
}

void StreamLexer::lex_number(Token& out) {
  out.kind = TokenKind::kNumber;

  // Fast path: the whole literal (and one delimiter after it) sits inside
  // the buffer, so it can be scanned and converted in place.
  std::size_t p = pos_;
  while (p < end_ && (is_digit(buf_[p]) || buf_[p] == '.')) ++p;
  if (p < end_ && (buf_[p] == 'e' || buf_[p] == 'E')) {
    ++p;
    if (p < end_ && (buf_[p] == '+' || buf_[p] == '-')) ++p;
    while (p < end_ && is_digit(buf_[p])) ++p;
  }
  if (p < end_) {
    out.text.assign(buf_.data() + pos_, p - pos_);
    const auto [ptr, ec] = std::from_chars(buf_.data() + pos_,
                                           buf_.data() + p, out.value);
    if (ec != std::errc{} || ptr != buf_.data() + p) {
      throw ParseError("malformed number '" + out.text + "'", source_name_,
                       out.line, out.column);
    }
    column_ += static_cast<int>(p - pos_);
    pos_ = p;
    return;
  }

  // Slow path: the literal may straddle a refill boundary; accumulate text.
  std::string& text = out.text;
  text.clear();
  for (;;) {
    const std::size_t start = pos_;
    while (pos_ < end_ && (is_digit(buf_[pos_]) || buf_[pos_] == '.')) ++pos_;
    text.append(buf_.data() + start, pos_ - start);
    column_ += static_cast<int>(pos_ - start);
    if (pos_ < end_) break;
    if (!refill()) break;
  }
  if (peek() == 'e' || peek() == 'E') {
    text += advance();
    if (peek() == '+' || peek() == '-') text += advance();
    while (!at_end() && is_digit(buf_[pos_])) text += advance();
  }
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), out.value);
  if (ec != std::errc{} || ptr != text.data() + text.size()) {
    throw ParseError("malformed number '" + text + "'", source_name_,
                     out.line, out.column);
  }
}

}  // namespace parallax::qasm
