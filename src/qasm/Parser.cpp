//===- qasm/Parser.cpp - OpenQASM / wQASM parser ---------------------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "qasm/Parser.h"

#include "qasm/Lexer.h"
#include "support/StringUtils.h"

#include <array>
#include <limits>
#include <map>

using namespace weaver;
using namespace weaver::qasm;
using circuit::Gate;
using circuit::GateKind;

namespace {

constexpr double Pi = 3.14159265358979323846;

/// Recursive-descent parser pulling one token of lookahead from the
/// lexer. All parse* methods return false after recording an error in
/// ErrorMessage.
class Parser {
public:
  explicit Parser(std::string_view Source) : Lex(Source), Tok(Lex.next()) {}

  Expected<WqasmProgram> run();

private:
  /// Registers: name -> (flat offset, size). Quantum and classical live in
  /// separate maps, both searchable by a token's view.
  using RegisterMap = std::map<std::string, std::pair<int, int>, std::less<>>;

  const Token &peek() const { return Tok; }
  Token advance() {
    Token T = Tok;
    Tok = Lex.next();
    return T;
  }

  /// Records an error found in what was already consumed, at the
  /// lookahead's line.
  bool fail(const std::string &Message) {
    if (ErrorMessage.empty())
      ErrorMessage = "line " + std::to_string(peek().Line) + ": " + Message;
    return false;
  }

  /// Records an error about the lookahead token itself. A token the lexer
  /// could not scan is reported with the lexer's own diagnostic: it is
  /// the first error in source order.
  bool failHere(const std::string &Message) {
    if (!peek().is(TokenKind::Error))
      return fail(Message);
    if (ErrorMessage.empty())
      ErrorMessage = Lex.error();
    return false;
  }

  /// "found '<lookahead text>'", for failHere diagnostics.
  std::string found() const {
    return "found '" + std::string(peek().Text) + "'";
  }

  bool expectPunct(char C) {
    if (!peek().isPunct(C))
      return failHere(std::string("expected '") + C + "', " + found());
    advance();
    return true;
  }

  bool parseStatement();
  bool parseVersion();
  bool parseInclude();
  bool parseRegisterDecl(bool Quantum, bool Qasm3Style);
  bool parseGateCall(std::string_view Name);
  bool parseMeasure();
  bool parseBarrier();
  bool parseAnnotation();

  bool parseInt(int &Out);
  bool parseSignedNumber(double &Out);
  bool parseLength(int32_t &Out);
  bool parseIntList(std::vector<int32_t> &Out);
  bool parseLengthList(std::vector<int32_t> &Out);
  bool parseRegisterRef(const RegisterMap &Regs, const char *Unit,
                        const char *Kind, int &FlatIndex);
  bool parseQubitRef(int &FlatIndex) {
    return parseRegisterRef(QuantumRegs, "qubit", "quantum", FlatIndex);
  }
  bool parseQubitRefOrIndex(int &FlatIndex);
  bool parseBitRef(int &FlatIndex) {
    return parseRegisterRef(ClassicalRegs, "bit", "classical", FlatIndex);
  }
  bool parseParamExpr(double &Out, int Depth);
  bool parseParamTerm(double &Out, int Depth);
  bool parseParamFactor(double &Out, int Depth);

  RegisterMap QuantumRegs;
  RegisterMap ClassicalRegs;

  Lexer Lex;
  Token Tok; ///< the lookahead
  WqasmProgram Program;
  /// The list values of the annotation being parsed, laid out as its
  /// payload; reused across annotations.
  std::vector<int32_t> Values;
  std::string ErrorMessage;
};

Expected<WqasmProgram> Parser::run() {
  while (!peek().is(TokenKind::EndOfFile))
    if (!parseStatement())
      return Expected<WqasmProgram>::error(ErrorMessage);
  return std::move(Program);
}

bool Parser::parseStatement() {
  const Token &T = peek();
  if (T.is(TokenKind::Annotation))
    return parseAnnotation();
  if (!T.is(TokenKind::Identifier))
    return failHere("expected statement, " + found());
  if (T.Text == "OPENQASM" || T.Text == "OpenQASM")
    return parseVersion();
  if (T.Text == "include")
    return parseInclude();
  if (T.Text == "qreg")
    return parseRegisterDecl(/*Quantum=*/true, /*Qasm3Style=*/false);
  if (T.Text == "creg")
    return parseRegisterDecl(/*Quantum=*/false, /*Qasm3Style=*/false);
  if (T.Text == "qubit")
    return parseRegisterDecl(/*Quantum=*/true, /*Qasm3Style=*/true);
  if (T.Text == "bit")
    return parseRegisterDecl(/*Quantum=*/false, /*Qasm3Style=*/true);
  if (T.Text == "measure")
    return parseMeasure();
  if (T.Text == "barrier")
    return parseBarrier();
  return parseGateCall(advance().Text);
}

bool Parser::parseVersion() {
  advance(); // OPENQASM
  if (!peek().is(TokenKind::Number))
    return failHere("expected version number after OPENQASM");
  Program.Version = std::string(advance().Text);
  return expectPunct(';');
}

bool Parser::parseInclude() {
  advance(); // include
  if (!peek().is(TokenKind::String))
    return failHere("expected string after include");
  advance();
  return expectPunct(';');
}

bool Parser::parseRegisterDecl(bool Quantum, bool Qasm3Style) {
  advance(); // keyword
  std::string_view Name;
  int Size = 1;
  if (Qasm3Style) {
    // qubit[5] q;
    if (peek().isPunct('[')) {
      advance();
      if (!parseInt(Size))
        return false;
      if (!expectPunct(']'))
        return false;
    }
    if (!peek().is(TokenKind::Identifier))
      return failHere("expected register name");
    Name = advance().Text;
  } else {
    // qreg q[5];
    if (!peek().is(TokenKind::Identifier))
      return failHere("expected register name");
    Name = advance().Text;
    if (peek().isPunct('[')) {
      advance();
      if (!parseInt(Size))
        return false;
      if (!expectPunct(']'))
        return false;
    }
  }
  if (Size <= 0)
    return fail("register size must be positive");
  auto &Map = Quantum ? QuantumRegs : ClassicalRegs;
  int &Total = Quantum ? Program.NumQubits : Program.NumBits;
  int Limit = Quantum ? MaxProgramQubits : MaxProgramBits;
  if (Size > Limit - Total)
    return fail("program declares more than " + std::to_string(Limit) +
                (Quantum ? " qubits" : " classical bits"));
  if (!Map.emplace(Name, std::make_pair(Total, Size)).second)
    return fail("redeclaration of register '" + std::string(Name) + "'");
  Total += Size;
  return expectPunct(';');
}

// A non-negative integer literal that fits an int; "0.5", "1e3" and
// "3000000000" are errors, not values cast from a double.
bool Parser::parseInt(int &Out) {
  if (peek().is(TokenKind::Number)) {
    Expected<long long> V =
        parseBoundedInt(peek().Text, 0, std::numeric_limits<int>::max());
    if (V) {
      Out = static_cast<int>(*V);
      advance();
      return true;
    }
  }
  return failHere("expected integer, " + found());
}

bool Parser::parseSignedNumber(double &Out) {
  double Sign = 1;
  while (peek().isPunct('-') || peek().isPunct('+')) {
    if (advance().isPunct('-'))
      Sign = -Sign;
  }
  if (!peek().is(TokenKind::Number))
    return failHere("expected number, " + found());
  Out = Sign * advance().NumberValue;
  return true;
}

// An optional '-' and a micrometre numeral, to whole nanometres. The
// numeral goes through parseMicrons, so "1e3", "0.0005" and "+1" are
// errors rather than values rounded onto the lattice.
bool Parser::parseLength(int32_t &Out) {
  bool Negative = peek().isPunct('-');
  if (Negative)
    advance();
  if (!peek().is(TokenKind::Number))
    return failHere("expected length, " + found());
  Expected<int32_t> V = parseMicrons(peek().Text);
  if (!V)
    return failHere(V.message());
  Out = Negative ? -*V : *V;
  advance();
  return true;
}

// '[' v (',' v)* ']' with optional commas, shared by every bracketed
// annotation list. Both append to \p Out.
bool Parser::parseIntList(std::vector<int32_t> &Out) {
  if (!expectPunct('['))
    return false;
  while (!peek().isPunct(']')) {
    int V;
    if (!parseInt(V))
      return false;
    Out.push_back(V);
    if (peek().isPunct(','))
      advance();
  }
  advance(); // ']'
  return true;
}

bool Parser::parseLengthList(std::vector<int32_t> &Out) {
  if (!expectPunct('['))
    return false;
  while (!peek().isPunct(']')) {
    int32_t V;
    if (!parseLength(V))
      return false;
    Out.push_back(V);
    if (peek().isPunct(','))
      advance();
  }
  advance(); // ']'
  return true;
}

// name or name[index] against one register map; Unit ("qubit", "bit")
// and Kind ("quantum", "classical") word the diagnostics.
bool Parser::parseRegisterRef(const RegisterMap &Regs, const char *Unit,
                              const char *Kind, int &FlatIndex) {
  if (!peek().is(TokenKind::Identifier))
    return failHere(std::string("expected ") + Unit + " reference");
  std::string_view Name = advance().Text;
  auto It = Regs.find(Name);
  if (It == Regs.end())
    return fail(std::string("unknown ") + Kind + " register '" +
                std::string(Name) + "'");
  int Offset = It->second.first, Size = It->second.second;
  if (peek().isPunct('[')) {
    advance();
    int Index;
    if (!parseInt(Index))
      return false;
    if (!expectPunct(']'))
      return false;
    if (Index >= Size)
      return fail(std::string(Unit) + " index out of range for register '" +
                  std::string(Name) + "'");
    FlatIndex = Offset + Index;
    return true;
  }
  if (Size != 1)
    return fail(std::string("unindexed reference to multi-") + Unit +
                " register '" + std::string(Name) + "'");
  FlatIndex = Offset;
  return true;
}

// expr := term (('+'|'-') term)*
// Depth counts the enclosing '(' and unary signs, capped at
// MaxParamExprDepth so hostile nesting cannot exhaust the stack.
bool Parser::parseParamExpr(double &Out, int Depth) {
  if (!parseParamTerm(Out, Depth))
    return false;
  while (peek().isPunct('+') || peek().isPunct('-')) {
    bool Add = advance().isPunct('+');
    double Rhs;
    if (!parseParamTerm(Rhs, Depth))
      return false;
    Out = Add ? Out + Rhs : Out - Rhs;
  }
  return true;
}

// term := factor (('*'|'/') factor)*
bool Parser::parseParamTerm(double &Out, int Depth) {
  if (!parseParamFactor(Out, Depth))
    return false;
  while (peek().isPunct('*') || peek().isPunct('/')) {
    bool Mul = advance().isPunct('*');
    double Rhs;
    if (!parseParamFactor(Rhs, Depth))
      return false;
    if (!Mul && Rhs == 0)
      return fail("division by zero in parameter expression");
    Out = Mul ? Out * Rhs : Out / Rhs;
  }
  return true;
}

// factor := ('-'|'+') factor | number | 'pi' | '(' expr ')'
bool Parser::parseParamFactor(double &Out, int Depth) {
  bool Sign = peek().isPunct('-') || peek().isPunct('+');
  if ((Sign || peek().isPunct('(')) && Depth == MaxParamExprDepth)
    return fail("parameter expression nested deeper than " +
                std::to_string(MaxParamExprDepth));
  if (Sign) {
    bool Negate = advance().isPunct('-');
    if (!parseParamFactor(Out, Depth + 1))
      return false;
    if (Negate)
      Out = -Out;
    return true;
  }
  if (peek().is(TokenKind::Number)) {
    Out = advance().NumberValue;
    return true;
  }
  if (peek().isIdent("pi")) {
    advance();
    Out = Pi;
    return true;
  }
  if (peek().isPunct('(')) {
    advance();
    if (!parseParamExpr(Out, Depth + 1))
      return false;
    return expectPunct(')');
  }
  return failHere("expected parameter expression, " + found());
}

bool Parser::parseGateCall(std::string_view Name) {
  GateKind Kind;
  if (!circuit::parseGateName(Name, Kind))
    return fail("unknown gate '" + std::string(Name) + "'");

  // Operands go straight into the gate's fixed storage; the counts run on
  // past three so the arity diagnostics can report them.
  std::array<double, 3> Params{};
  size_t NumParams = 0;
  if (peek().isPunct('(')) {
    advance();
    if (!peek().isPunct(')')) {
      for (;;) {
        double Value;
        if (!parseParamExpr(Value, 0))
          return false;
        if (NumParams < Params.size())
          Params[NumParams] = Value;
        ++NumParams;
        if (!peek().isPunct(','))
          break;
        advance();
      }
    }
    if (!expectPunct(')'))
      return false;
  }
  if (NumParams != circuit::gateNumParams(Kind))
    return fail("gate '" + std::string(Name) + "' expects " +
                std::to_string(circuit::gateNumParams(Kind)) +
                " parameter(s), got " + std::to_string(NumParams));

  std::array<int, 3> Qubits{};
  size_t NumQubits = 0;
  for (;;) {
    int Q;
    if (!parseQubitRef(Q))
      return false;
    if (NumQubits < Qubits.size())
      Qubits[NumQubits] = Q;
    ++NumQubits;
    if (!peek().isPunct(','))
      break;
    advance();
  }
  if (!expectPunct(';'))
    return false;
  if (NumQubits != circuit::gateArity(Kind))
    return fail("gate '" + std::string(Name) + "' expects " +
                std::to_string(circuit::gateArity(Kind)) + " qubit(s), got " +
                std::to_string(NumQubits));
  for (size_t I = 0; I < NumQubits; ++I)
    for (size_t J = I + 1; J < NumQubits; ++J)
      if (Qubits[I] == Qubits[J])
        return fail("duplicate qubit operand in gate '" + std::string(Name) +
                    "'");
  Program.addStatement(Gate::fromStorage(Kind, Qubits, Params));
  return true;
}

bool Parser::parseMeasure() {
  advance(); // measure
  int Qubit;
  if (!parseQubitRef(Qubit))
    return false;
  if (peek().isPunct('-')) { // QASM2 arrow: measure q[0] -> c[0];
    advance();
    if (!expectPunct('>'))
      return false;
    int Bit;
    if (!parseBitRef(Bit))
      return false;
  }
  if (!expectPunct(';'))
    return false;
  Program.addStatement(Gate(GateKind::Measure, {Qubit}));
  return true;
}

bool Parser::parseBarrier() {
  advance(); // barrier
  // Operand lists are accepted but the IR barrier spans all qubits.
  while (!peek().isPunct(';')) {
    int Q;
    if (!parseQubitRef(Q))
      return false;
    if (peek().isPunct(','))
      advance();
  }
  advance(); // ';'
  Program.addStatement(Gate(GateKind::Barrier, {}));
  return true;
}

bool Parser::parseAnnotation() {
  std::string_view Keyword = advance().Text;
  Annotation A;
  Values.clear();
  size_t Split = 0; // where the payload's second list starts
  if (Keyword == "slm") {
    if (!expectPunct('['))
      return false;
    A.Kind = AnnotationKind::Slm;
    while (!peek().isPunct(']')) {
      if (!expectPunct('('))
        return false;
      int32_t X, Y;
      if (!parseLength(X))
        return false;
      if (!expectPunct(','))
        return false;
      if (!parseLength(Y))
        return false;
      if (!expectPunct(')'))
        return false;
      Values.push_back(X);
      Values.push_back(Y);
      if (peek().isPunct(','))
        advance();
    }
    advance(); // ']'
  } else if (Keyword == "aod") {
    A.Kind = AnnotationKind::Aod;
    if (!parseLengthList(Values))
      return false;
    Split = Values.size();
    if (!parseLengthList(Values))
      return false;
  } else if (Keyword == "bind") {
    int Qubit;
    if (!parseQubitRefOrIndex(Qubit))
      return false;
    if (peek().isIdent("slm")) {
      advance();
      int Index;
      if (!parseInt(Index))
        return false;
      A = Annotation::bindSlm(Qubit, Index);
    } else if (peek().isIdent("aod")) {
      advance();
      int Col, Row;
      if (!parseInt(Col) || !parseInt(Row))
        return false;
      A = Annotation::bindAod(Qubit, Col, Row);
    } else {
      return failHere("expected 'slm' or 'aod' in @bind");
    }
  } else if (Keyword == "transfer") {
    int SlmIndex, Col, Row;
    if (!parseInt(SlmIndex))
      return false;
    if (!expectPunct('('))
      return false;
    if (!parseInt(Col))
      return false;
    if (!expectPunct(','))
      return false;
    if (!parseInt(Row))
      return false;
    if (!expectPunct(')'))
      return false;
    A = Annotation::transfer(SlmIndex, Col, Row);
  } else if (Keyword == "shuttle") {
    bool Row, Parallel;
    if (peek().isIdent("row"))
      Row = true, Parallel = false;
    else if (peek().isIdent("column"))
      Row = false, Parallel = false;
    else if (peek().isIdent("rows"))
      Row = true, Parallel = true;
    else if (peek().isIdent("columns"))
      Row = false, Parallel = true;
    else
      return failHere("expected 'row', 'column', 'rows' or 'columns' in "
                      "@shuttle");
    advance();
    if (Parallel) {
      // @shuttle rows|columns [i0, i1, ...] [off0, off1, ...]
      A.Kind = AnnotationKind::ShuttleParallel;
      A.ShuttleRow = Row;
      if (!parseIntList(Values))
        return false;
      Split = Values.size();
      if (!parseLengthList(Values))
        return false;
      if (Values.size() != 2 * Split)
        return fail("@shuttle parallel form needs one offset per index");
    } else {
      int Index;
      int32_t Offset;
      if (!parseInt(Index) || !parseLength(Offset))
        return false;
      A = Annotation::shuttle(Row, Index, Offset);
    }
  } else if (Keyword == "raman") {
    bool Global;
    if (peek().isIdent("global"))
      Global = true;
    else if (peek().isIdent("local"))
      Global = false;
    else
      return failHere("expected 'global' or 'local' in @raman");
    advance();
    int Qubit = -1;
    if (!Global && !parseQubitRefOrIndex(Qubit))
      return false;
    double X, Y, Z;
    if (!parseSignedNumber(X) || !parseSignedNumber(Y) ||
        !parseSignedNumber(Z))
      return false;
    A = Global ? Annotation::ramanGlobal(X, Y, Z)
               : Annotation::ramanLocal(Qubit, X, Y, Z);
  } else if (Keyword == "rydberg") {
    A = Annotation::rydberg();
  } else {
    return fail("unknown annotation '@" + std::string(Keyword) + "'");
  }
  A.setPayload(Values.data(), Values.size(), Split);
  Program.Annotations.push_back(std::move(A));
  return true;
}

// A bare index names a flat qubit and must be one the program declared.
bool Parser::parseQubitRefOrIndex(int &FlatIndex) {
  if (!peek().is(TokenKind::Number))
    return parseQubitRef(FlatIndex);
  if (!parseInt(FlatIndex))
    return false;
  if (FlatIndex >= Program.NumQubits)
    return fail("qubit " + std::to_string(FlatIndex) +
                " out of range: the program declares " +
                std::to_string(Program.NumQubits) + " qubit(s)");
  return true;
}

} // namespace

Expected<WqasmProgram> qasm::parseWqasm(std::string_view Source) {
  return Parser(Source).run();
}

Expected<circuit::Circuit> qasm::parseQasmCircuit(std::string_view Source) {
  auto Program = parseWqasm(Source);
  if (!Program)
    return Expected<circuit::Circuit>::error(Program.message());
  return Program->toCircuit();
}
