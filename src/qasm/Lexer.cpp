//===- qasm/Lexer.cpp - OpenQASM / wQASM lexer ----------------------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "qasm/Lexer.h"

#include "support/StringUtils.h"

using namespace weaver;
using namespace weaver::qasm;

namespace {

// ASCII classes, spelled out: the <cctype> ones consult the locale.
bool isIdentStart(char C) {
  return (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_';
}
bool isIdentChar(char C) { return isIdentStart(C) || (C >= '0' && C <= '9'); }
bool isBlank(char C) {
  return C == ' ' || C == '\t' || C == '\r' || C == '\v' || C == '\f';
}
bool isPunct(char C) {
  return std::string_view(";,()[]{}+-*/=<>").find(C) != std::string_view::npos;
}

} // namespace

Token Lexer::make(TokenKind Kind, size_t Start, double Value) const {
  Token T;
  T.Kind = Kind;
  T.Text = Source.substr(Start, Pos - Start);
  T.NumberValue = Value;
  T.Line = Line;
  return T;
}

Token Lexer::fail(const std::string &Message) {
  Error = "line " + std::to_string(Line) + ": " + Message;
  Pos = Source.size();
  return make(TokenKind::Error, Pos);
}

Token Lexer::next() {
  size_t N = Source.size();
  while (Pos < N) {
    if (isBlank(Source[Pos])) {
      ++Pos;
    } else if (Source[Pos] == '\n') {
      ++Line;
      ++Pos;
    } else if (Source[Pos] == '/' && Pos + 1 < N && Source[Pos + 1] == '/') {
      while (Pos < N && Source[Pos] != '\n')
        ++Pos;
    } else if (Source[Pos] == '/' && Pos + 1 < N && Source[Pos + 1] == '*') {
      Pos += 2;
      while (Pos + 1 < N && !(Source[Pos] == '*' && Source[Pos + 1] == '/')) {
        if (Source[Pos] == '\n')
          ++Line;
        ++Pos;
      }
      Pos = Pos + 2 <= N ? Pos + 2 : N;
    } else {
      break;
    }
  }
  if (Pos == N)
    return make(Error.empty() ? TokenKind::EndOfFile : TokenKind::Error, Pos);

  size_t Start = Pos;
  char C = Source[Pos];
  if (isIdentStart(C)) {
    while (Pos < N && isIdentChar(Source[Pos]))
      ++Pos;
    return make(TokenKind::Identifier, Start);
  }
  if (isPunct(C)) {
    ++Pos;
    return make(TokenKind::Punct, Start);
  }
  if (size_t Len = scanNumeral(Source.substr(Pos))) {
    Pos += Len;
    Expected<double> Value = parseFiniteDouble(Source.substr(Start, Len));
    if (!Value)
      return fail("invalid numeric literal '" +
                  std::string(Source.substr(Start, Len)) + "'");
    return make(TokenKind::Number, Start, *Value);
  }
  if (C == '"') {
    size_t End = Source.find('"', Start + 1);
    if (End == std::string_view::npos)
      return fail("unterminated string");
    Pos = End + 1;
    Token T = make(TokenKind::String, Start + 1);
    T.Text.remove_suffix(1);
    return T;
  }
  if (C == '@') {
    ++Pos;
    while (Pos < N && isIdentChar(Source[Pos]))
      ++Pos;
    if (Pos == Start + 1)
      return fail("'@' without keyword");
    return make(TokenKind::Annotation, Start + 1);
  }
  return fail("unexpected character '" + std::string(1, C) + "'");
}
