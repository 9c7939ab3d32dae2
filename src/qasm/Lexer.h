//===- qasm/Lexer.h - OpenQASM / wQASM lexer -------------------*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-rolled pull lexer for the OpenQASM subset (plus wQASM '@'
/// annotations) that the paper's pipeline consumes and emits. The parser
/// asks for one token at a time; token text is a view into the source, so
/// lexing allocates nothing and no token vector is built.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_QASM_LEXER_H
#define WEAVER_QASM_LEXER_H

#include <string>
#include <string_view>

namespace weaver {
namespace qasm {

/// Token categories produced by the lexer.
enum class TokenKind {
  Identifier, ///< gate names, register names, keywords
  Number,     ///< integer or floating literal
  String,     ///< double-quoted string (include paths)
  Annotation, ///< '@' followed by a keyword, e.g. @shuttle
  Punct,      ///< one of ; , ( ) [ ] { } + - * / = < >
  EndOfFile,
  Error,      ///< unscannable input; Lexer::error() has the diagnostic
};

/// One token with its source line (1-based) for diagnostics. Text views
/// the source the lexer was given and lives as long as it does.
struct Token {
  TokenKind Kind = TokenKind::EndOfFile;
  int Line = 0;
  std::string_view Text;
  double NumberValue = 0;

  bool is(TokenKind K) const { return Kind == K; }
  bool isPunct(char C) const {
    return Kind == TokenKind::Punct && Text[0] == C;
  }
  bool isIdent(std::string_view S) const {
    return Kind == TokenKind::Identifier && Text == S;
  }
};

/// Scans \p Source one token per next() call. '//' and '/* */' comments
/// are skipped. Numerals are validated as they are scanned: a malformed
/// or overflowing one is an error, never a prefix-truncated value. The
/// first error ends the stream: next() returns an Error token from then
/// on, and error() holds the diagnostic.
class Lexer {
public:
  explicit Lexer(std::string_view Source) : Source(Source) {}

  /// Returns the next token; EndOfFile once the source is exhausted.
  Token next();

  /// The diagnostic ("line N: ...") of the first error, or empty.
  const std::string &error() const { return Error; }

private:
  Token make(TokenKind Kind, size_t Start, double Value = 0) const;
  Token fail(const std::string &Message);

  std::string_view Source;
  size_t Pos = 0;
  int Line = 1;
  std::string Error;
};

} // namespace qasm
} // namespace weaver

#endif // WEAVER_QASM_LEXER_H
