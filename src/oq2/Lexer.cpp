//===- oq2/Lexer.cpp - OpenQASM 2 tokenizer -------------------------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "oq2/Lexer.h"

#include "support/StringUtils.h"

#include <cctype>

using namespace weaver;
using namespace weaver::oq2;

namespace {

/// Longest token the lexer will materialize. Identifiers and numerals in
/// real programs are tens of bytes; a longer run is hostile input and
/// bounding it caps per-token allocation.
constexpr size_t MaxTokenBytes = 256;

std::string posMsg(int Line, int Col, const std::string &Msg) {
  return "line " + std::to_string(Line) + ", col " + std::to_string(Col) +
         ": " + Msg;
}

} // namespace

Expected<std::vector<Token>>
oq2::tokenizeOq2(std::string_view Source) {
  using Result = Expected<std::vector<Token>>;
  std::vector<Token> Tokens;
  int Line = 1, Col = 1;
  size_t I = 0, N = Source.size();

  auto Advance = [&](size_t Count = 1) {
    for (size_t K = 0; K < Count && I < N; ++K, ++I) {
      if (Source[I] == '\n') {
        ++Line;
        Col = 1;
      } else {
        ++Col;
      }
    }
  };
  auto Push = [&](TokenKind Kind, std::string Text, int TokLine, int TokCol) {
    Token T;
    T.Kind = Kind;
    T.Text = std::move(Text);
    T.Line = TokLine;
    T.Col = TokCol;
    Tokens.push_back(std::move(T));
  };

  while (I < N) {
    char C = Source[I];
    int TokLine = Line, TokCol = Col;
    if (C == '\0')
      return Result::error(posMsg(Line, Col, "NUL byte in input"));
    if (std::isspace(static_cast<unsigned char>(C))) {
      Advance();
      continue;
    }
    if (C == '/' && I + 1 < N && Source[I + 1] == '/') {
      while (I < N && Source[I] != '\n')
        Advance();
      continue;
    }
    if (C == '/' && I + 1 < N && Source[I + 1] == '*') {
      Advance(2);
      bool Closed = false;
      while (I < N) {
        if (Source[I] == '\0')
          return Result::error(posMsg(Line, Col, "NUL byte in input"));
        if (Source[I] == '*' && I + 1 < N && Source[I + 1] == '/') {
          Advance(2);
          Closed = true;
          break;
        }
        Advance();
      }
      if (!Closed)
        return Result::error(
            posMsg(TokLine, TokCol, "unterminated block comment"));
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(C)) || C == '_') {
      size_t Start = I;
      while (I < N && (std::isalnum(static_cast<unsigned char>(Source[I])) ||
                       Source[I] == '_'))
        Advance();
      if (I - Start > MaxTokenBytes)
        return Result::error(posMsg(TokLine, TokCol, "identifier too long"));
      Push(TokenKind::Identifier,
           std::string(Source.substr(Start, I - Start)), TokLine, TokCol);
      continue;
    }
    if (size_t Len = scanNumeral(Source.substr(I))) {
      // Validate the whole numeral run with the bounds-checked parsers:
      // "1.2.3", "1e+", and overflow shapes are lexer errors, never
      // prefix-truncated values.
      std::string Text(Source.substr(I, Len));
      Advance(Len);
      if (Text.size() > MaxTokenBytes)
        return Result::error(
            posMsg(TokLine, TokCol, "numeric literal too long"));
      bool IsInteger =
          Text.find_first_not_of("0123456789") == std::string::npos;
      Token T;
      T.Text = Text;
      T.Line = TokLine;
      T.Col = TokCol;
      if (IsInteger) {
        Expected<long long> V = parseInt(Text, 0, (1LL << 62));
        if (!V)
          return Result::error(posMsg(
              TokLine, TokCol, "invalid integer literal '" + Text + "'"));
        T.Kind = TokenKind::Integer;
        T.IntValue = *V;
        T.RealValue = static_cast<double>(*V);
      } else {
        Expected<double> V = parseFiniteDouble(Text);
        if (!V)
          return Result::error(posMsg(
              TokLine, TokCol, "invalid numeric literal '" + Text + "'"));
        T.Kind = TokenKind::Real;
        T.RealValue = *V;
      }
      Tokens.push_back(std::move(T));
      continue;
    }
    if (C == '"') {
      Advance();
      size_t Start = I;
      while (I < N && Source[I] != '"' && Source[I] != '\n' &&
             Source[I] != '\0')
        Advance();
      if (I >= N || Source[I] != '"')
        return Result::error(posMsg(TokLine, TokCol, "unterminated string"));
      if (I - Start > MaxTokenBytes)
        return Result::error(posMsg(TokLine, TokCol, "string too long"));
      Push(TokenKind::String, std::string(Source.substr(Start, I - Start)),
           TokLine, TokCol);
      Advance();
      continue;
    }
    if (C == '-' && I + 1 < N && Source[I + 1] == '>') {
      Push(TokenKind::Punct, "->", TokLine, TokCol);
      Advance(2);
      continue;
    }
    if (C == '=' && I + 1 < N && Source[I + 1] == '=') {
      Push(TokenKind::Punct, "==", TokLine, TokCol);
      Advance(2);
      continue;
    }
    if (std::string_view(";,()[]{}+-*/^").find(C) != std::string_view::npos) {
      Push(TokenKind::Punct, std::string(1, C), TokLine, TokCol);
      Advance();
      continue;
    }
    return Result::error(posMsg(
        Line, Col,
        std::isprint(static_cast<unsigned char>(C))
            ? "unexpected character '" + std::string(1, C) + "'"
            : "unexpected byte 0x" +
                  formatf("%02x", static_cast<unsigned char>(C))));
  }
  Token Eof;
  Eof.Line = Line;
  Eof.Col = Col;
  Tokens.push_back(std::move(Eof));
  return Tokens;
}
