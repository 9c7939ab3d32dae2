//===- tests/qasm_test.cpp - QASM front end unit + property tests ---------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "qasm/Lexer.h"
#include "qasm/Parser.h"
#include "qasm/Printer.h"
#include "sim/StateVector.h"

#include <gtest/gtest.h>

#include <charconv>
#include <climits>
#include <filesystem>
#include <fstream>

using namespace weaver;
using namespace weaver::qasm;
using circuit::Circuit;
using circuit::GateKind;

// --- Lexer ---------------------------------------------------------------

namespace {

/// The elements of an annotation payload list, to compare with a vector.
std::vector<int32_t> values(Span<const int32_t> List) {
  return {List.begin(), List.end()};
}

/// Pulls tokens until the end of input or the first error, returning the
/// last one pulled.
Token drain(Lexer &L) {
  Token T = L.next();
  while (!T.is(TokenKind::EndOfFile) && !T.is(TokenKind::Error))
    T = L.next();
  return T;
}

} // namespace

TEST(Lexer, TokenisesBasicProgram) {
  Lexer L("h q[0];");
  Token Tokens[7]; // h q [ 0 ] ; EOF
  for (Token &T : Tokens)
    T = L.next();
  ASSERT_TRUE(L.error().empty()) << L.error();
  for (int I = 0; I < 6; ++I)
    EXPECT_FALSE(Tokens[I].is(TokenKind::EndOfFile)) << I;
  ASSERT_TRUE(Tokens[6].is(TokenKind::EndOfFile));
  EXPECT_TRUE(Tokens[0].isIdent("h"));
  EXPECT_TRUE(Tokens[2].isPunct('['));
  EXPECT_EQ(Tokens[3].NumberValue, 0.0);
}

TEST(Lexer, SkipsComments) {
  Lexer L("// line\nh q; /* block\nstill */ x q;");
  EXPECT_TRUE(L.next().isIdent("h"));
  drain(L);
  ASSERT_TRUE(L.error().empty());
}

TEST(Lexer, LexesAnnotations) {
  Lexer L("@rydberg");
  Token T = L.next();
  ASSERT_TRUE(L.error().empty());
  EXPECT_EQ(T.Kind, TokenKind::Annotation);
  EXPECT_EQ(T.Text, "rydberg");
}

TEST(Lexer, LexesFloatsAndExponents) {
  Lexer L("1.5 2e-3 .25");
  EXPECT_DOUBLE_EQ(L.next().NumberValue, 1.5);
  EXPECT_DOUBLE_EQ(L.next().NumberValue, 2e-3);
  EXPECT_DOUBLE_EQ(L.next().NumberValue, 0.25);
  ASSERT_TRUE(L.error().empty());
}

TEST(Lexer, RejectsMalformedNumerals) {
  // The scanner accepts number-ish character runs that strtod would
  // silently truncate to a prefix; they must be lexer errors instead.
  for (const char *Bad : {"1.2.3", "1e", "1e+", "2e--3", "1.5e1e1",
                          "3..14", "9e999999999999999999"}) {
    std::string Source = std::string("rz(") + Bad + ") q;";
    Lexer L(Source);
    EXPECT_TRUE(drain(L).is(TokenKind::Error)) << Bad;
    EXPECT_FALSE(L.error().empty()) << "accepted hostile numeral: " << Bad;
    EXPECT_NE(L.error().find("line 1"), std::string::npos) << L.error();
  }
}

TEST(Lexer, RejectsOverflowingNumerals) {
  Lexer Overflow("1e400"); // infinity under strtod
  drain(Overflow);
  EXPECT_FALSE(Overflow.error().empty());
  // Denormal underflow parses to a finite (tiny or zero) value; that is
  // representable and must stay accepted.
  Lexer Underflow("1e-400");
  Token T = Underflow.next();
  EXPECT_TRUE(Underflow.error().empty()) << Underflow.error();
  ASSERT_TRUE(T.is(TokenKind::Number));
  EXPECT_GE(T.NumberValue, 0.0);
}

TEST(Lexer, ReportsUnterminatedString) {
  Lexer L("include \"abc");
  drain(L);
  EXPECT_FALSE(L.error().empty());
}

TEST(Lexer, ReportsBareAt) {
  Lexer L("@ 1");
  drain(L);
  EXPECT_FALSE(L.error().empty());
}

TEST(Lexer, TracksLineNumbers) {
  Lexer L("h q;\nx q;");
  Token Tokens[4];
  for (Token &T : Tokens)
    T = L.next();
  ASSERT_TRUE(L.error().empty());
  EXPECT_EQ(Tokens[0].Line, 1);
  EXPECT_EQ(Tokens[3].Line, 2);
}

// --- Parser ----------------------------------------------------------------

TEST(Parser, ParsesQasm3Program) {
  auto C = parseQasmCircuit("OPENQASM 3.0;\n"
                            "qubit[2] q;\n"
                            "bit[2] c;\n"
                            "h q[0];\n"
                            "cz q[0], q[1];\n"
                            "measure q[0];\n");
  ASSERT_TRUE(C.ok()) << C.message();
  EXPECT_EQ(C->numQubits(), 2);
  EXPECT_EQ(C->size(), 3u);
  EXPECT_EQ(C->gate(1).kind(), GateKind::CZ);
}

TEST(Parser, ParsesQasm2Program) {
  auto C = parseQasmCircuit("OPENQASM 2.0;\n"
                            "include \"qelib1.inc\";\n"
                            "qreg q[3];\n"
                            "creg c[3];\n"
                            "ccx q[0], q[1], q[2];\n"
                            "measure q[1] -> c[1];\n");
  ASSERT_TRUE(C.ok()) << C.message();
  EXPECT_EQ(C->gate(0).kind(), GateKind::CCX);
  EXPECT_EQ(C->gate(1).kind(), GateKind::Measure);
}

TEST(Parser, EvaluatesParameterExpressions) {
  auto C = parseQasmCircuit("qubit[1] q;\nrz(pi/2) q[0];\n"
                            "rx(-pi) q[0];\nu3(1+2*3, (2-1)/4, -0.5) q[0];\n");
  ASSERT_TRUE(C.ok()) << C.message();
  EXPECT_NEAR(C->gate(0).param(0), 1.5707963267948966, 1e-12);
  EXPECT_NEAR(C->gate(1).param(0), -3.14159265358979, 1e-10);
  EXPECT_NEAR(C->gate(2).param(0), 7.0, 1e-12);
  EXPECT_NEAR(C->gate(2).param(1), 0.25, 1e-12);
}

TEST(Parser, MultipleRegistersGetFlatOffsets) {
  auto C = parseQasmCircuit("qreg a[2];\nqreg b[2];\ncz a[1], b[0];\n");
  ASSERT_TRUE(C.ok()) << C.message();
  EXPECT_EQ(C->gate(0).qubit(0), 1);
  EXPECT_EQ(C->gate(0).qubit(1), 2);
}

TEST(Parser, RejectsUnknownGate) {
  EXPECT_FALSE(parseQasmCircuit("qubit[1] q;\nfrob q[0];\n").ok());
}

TEST(Parser, RejectsWrongArity) {
  EXPECT_FALSE(parseQasmCircuit("qubit[2] q;\ncz q[0];\n").ok());
}

TEST(Parser, RejectsWrongParamCount) {
  EXPECT_FALSE(parseQasmCircuit("qubit[1] q;\nrz q[0];\n").ok());
  EXPECT_FALSE(parseQasmCircuit("qubit[1] q;\nh(0.5) q[0];\n").ok());
}

TEST(Parser, RejectsOutOfRangeIndex) {
  EXPECT_FALSE(parseQasmCircuit("qubit[2] q;\nh q[2];\n").ok());
}

TEST(Parser, RejectsUnknownRegister) {
  EXPECT_FALSE(parseQasmCircuit("qubit[2] q;\nh r[0];\n").ok());
}

TEST(Parser, RejectsDuplicateOperands) {
  EXPECT_FALSE(parseQasmCircuit("qubit[2] q;\ncz q[0], q[0];\n").ok());
}

TEST(Parser, RejectsRedeclaration) {
  EXPECT_FALSE(parseQasmCircuit("qubit[2] q;\nqubit[2] q;\n").ok());
}

TEST(Parser, ErrorsCarryLineNumbers) {
  auto C = parseQasmCircuit("qubit[1] q;\nh q[0];\nbogus q[0];\n");
  ASSERT_FALSE(C.ok());
  EXPECT_NE(C.message().find("line 3"), std::string::npos) << C.message();
}

TEST(Parser, BarrierVariants) {
  auto C = parseQasmCircuit("qubit[2] q;\nbarrier;\nbarrier q[0], q[1];\n");
  ASSERT_TRUE(C.ok()) << C.message();
  EXPECT_EQ(C->count(GateKind::Barrier), 2u);
}

TEST(Parser, FirstErrorInSourceOrderWins) {
  // A lexer error further down no longer masks an earlier parse error.
  auto P = parseWqasm("qubit[1] q;\nfrob q[0];\n$\n");
  ASSERT_FALSE(P.ok());
  EXPECT_EQ(P.message(), "line 2: unknown gate 'frob'");
  auto Dup = parseWqasm("qubit[2] q;\ncz q[0], q[0];$\n");
  ASSERT_FALSE(Dup.ok());
  EXPECT_EQ(Dup.message(), "line 2: duplicate qubit operand in gate 'cz'");
  // The token the parser stops at reports the lexer's own diagnostic.
  auto Lex = parseWqasm("qubit[1] q;\nrz(1.2.3) q[0];\n");
  ASSERT_FALSE(Lex.ok());
  EXPECT_EQ(Lex.message(), "line 2: invalid numeric literal '1.2.3'");
}

// --- Hostile input -----------------------------------------------------------

TEST(Parser, RejectsNonIntegerOperands) {
  // Integer operands used to be a double cast to int: 1e300 and 3e10 were
  // undefined behaviour and 0.5 read as 0. They must be integer literals
  // that fit an int.
  for (const char *Bad : {"qubit[1e300] q;\n", "qubit[2.0] q;\n",
                          "qubit[2] q;\nh q[0.5];\n",
                          "qubit[2] q;\nh q[2147483648];\n",
                          "qubit[1] q;\n@bind q[0] slm 3e10\nh q[0];\n",
                          "qubit[1] q;\n@shuttle row 1e9 2\nh q[0];\n"}) {
    auto P = parseWqasm(Bad);
    ASSERT_FALSE(P.ok()) << Bad;
    EXPECT_NE(P.message().find("expected integer"), std::string::npos)
        << P.message();
  }
  auto P = parseWqasm("qubit[2] q;\n@bind q[1] slm 2147483647\nh q[01];\n");
  ASSERT_TRUE(P.ok()) << P.message();
  EXPECT_EQ(P->annotationsOf(0)[0].SlmIndex, 2147483647);
  EXPECT_EQ(P->Statements[0].Gate.qubit(0), 1);
}

TEST(Parser, CapsDeclaredQubitsAndBits) {
  // Two 2e9-qubit registers used to overflow the int total and still
  // parse, with NumQubits = -294967296.
  EXPECT_FALSE(
      parseWqasm("qubit[2000000000] q;\nqubit[2000000000] r;\n").ok());
  std::string Qubits = "qubit[" + std::to_string(MaxProgramQubits) + "] q;\n";
  auto P = parseWqasm(Qubits);
  ASSERT_TRUE(P.ok()) << P.message();
  EXPECT_EQ(P->NumQubits, MaxProgramQubits);
  EXPECT_FALSE(parseWqasm(Qubits + "qreg r[1];\n").ok());
  EXPECT_FALSE(parseWqasm("qubit[4097] q;\n").ok());
  std::string Bits = "bit[" + std::to_string(MaxProgramBits) + "] c;\n";
  ASSERT_TRUE(parseWqasm(Bits).ok());
  EXPECT_FALSE(parseWqasm(Bits + "creg d[1];\n").ok());
}

TEST(Parser, CapsParameterExpressionDepth) {
  // Two million '(' used to recurse until the stack overflowed.
  auto Deep = parseWqasm("qubit[1] q;\nrz(" + std::string(2000000, '('));
  ASSERT_FALSE(Deep.ok());
  EXPECT_NE(Deep.message().find("nested deeper than 64"), std::string::npos)
      << Deep.message();
  EXPECT_FALSE(
      parseWqasm("qubit[1] q;\nrz(" + std::string(2000000, '-') + "1) q[0];\n")
          .ok());
  // Exactly MaxParamExprDepth levels, parentheses and signs alike, parse.
  auto Nest = [](int Parens, const char *Inner) {
    return "qubit[1] q;\nrz(" + std::string(Parens, '(') + Inner +
           std::string(Parens, ')') + ") q[0];\n";
  };
  auto P = parseWqasm(Nest(MaxParamExprDepth, "2"));
  ASSERT_TRUE(P.ok()) << P.message();
  EXPECT_EQ(P->Statements[0].Gate.param(0), 2.0);
  EXPECT_TRUE(parseWqasm(Nest(MaxParamExprDepth - 1, "-2")).ok());
  EXPECT_FALSE(parseWqasm(Nest(MaxParamExprDepth + 1, "2")).ok());
  EXPECT_FALSE(parseWqasm(Nest(MaxParamExprDepth, "-2")).ok());
}

TEST(Wqasm, RejectsBareQubitIndicesPastTheDeclaredCount) {
  // A bare 2e9 used to parse, and replaying its @bind then resized the
  // device's per-qubit vectors to 2e9 entries.
  for (const char *Bad : {"qubit[1] q;\n@bind 2000000000 slm 0\nh q[0];\n",
                          "qubit[1] q;\n@bind 1 slm 0\nh q[0];\n",
                          "qubit[1] q;\n@raman local 1 0 0 0\nh q[0];\n",
                          "@bind 0 slm 0\nqubit[1] q;\nh q[0];\n"}) {
    auto P = parseWqasm(Bad);
    ASSERT_FALSE(P.ok()) << Bad;
    EXPECT_NE(P.message().find("out of range"), std::string::npos)
        << P.message();
  }
  auto P = parseWqasm("qubit[2] q;\n@bind 1 slm 0\n@raman local 1 0 0 0\n"
                      "h q[0];\n");
  ASSERT_TRUE(P.ok()) << P.message();
  EXPECT_EQ(P->annotationsOf(0)[0].Qubit, 1);
  EXPECT_EQ(P->annotationsOf(0)[1].Qubit, 1);
}

// --- wQASM annotations -------------------------------------------------------

TEST(Wqasm, ParsesAllAnnotationForms) {
  auto P = parseWqasm("qubit[2] q;\n"
                      "@slm [(0, 0), (5, 0)]\n"
                      "@aod [1, 3] [2]\n"
                      "@bind q[0] slm 0\n"
                      "@bind q[1] aod 0 0\n"
                      "@transfer 1 (1, 0)\n"
                      "@shuttle row 0 2.5\n"
                      "@shuttle column 1 -1.5\n"
                      "@raman global 0 -1.5707963 3.14159265\n"
                      "@raman local q[0] 3.14159265 0 0\n"
                      "@rydberg\n"
                      "x q[0];\n");
  ASSERT_TRUE(P.ok()) << P.message();
  ASSERT_EQ(P->Statements.size(), 1u);
  Span<const Annotation> Anns = P->annotationsOf(0);
  ASSERT_EQ(Anns.size(), 10u);
  EXPECT_EQ(Anns[0].Kind, AnnotationKind::Slm);
  EXPECT_EQ(Anns[0].numTraps(), 2u);
  EXPECT_EQ(Anns[1].aodXs().size(), 2u);
  EXPECT_TRUE(Anns[2].BindToSlm);
  EXPECT_FALSE(Anns[3].BindToSlm);
  EXPECT_EQ(Anns[4].SlmIndex, 1);
  EXPECT_TRUE(Anns[5].ShuttleRow);
  EXPECT_FALSE(Anns[6].ShuttleRow);
  EXPECT_EQ(Anns[5].Offset, 2500); // micrometres in the text, nm in memory
  EXPECT_EQ(Anns[6].Offset, -1500);
  EXPECT_EQ(Anns[7].Kind, AnnotationKind::RamanGlobal);
  EXPECT_EQ(Anns[8].Kind, AnnotationKind::RamanLocal);
  EXPECT_EQ(Anns[8].Qubit, 0);
  EXPECT_EQ(Anns[9].Kind, AnnotationKind::Rydberg);
}

TEST(Wqasm, ParsesParallelShuttleForms) {
  auto P = parseWqasm("qubit[1] q;\n"
                      "@shuttle columns [0, 2, 3] [5, -1.5, 2]\n"
                      "@shuttle rows [1] [-4]\n"
                      "x q[0];\n");
  ASSERT_TRUE(P.ok()) << P.message();
  Span<const Annotation> Anns = P->annotationsOf(0);
  ASSERT_EQ(Anns.size(), 2u);
  EXPECT_EQ(Anns[0].Kind, AnnotationKind::ShuttleParallel);
  EXPECT_FALSE(Anns[0].ShuttleRow);
  EXPECT_EQ(values(Anns[0].shuttleIndices()), (std::vector<int>{0, 2, 3}));
  EXPECT_EQ(values(Anns[0].shuttleOffsets()),
            (std::vector<int32_t>{5000, -1500, 2000}));
  EXPECT_EQ(Anns[1].Kind, AnnotationKind::ShuttleParallel);
  EXPECT_TRUE(Anns[1].ShuttleRow);
  EXPECT_EQ(values(Anns[1].shuttleIndices()), (std::vector<int>{1}));
  EXPECT_EQ(values(Anns[1].shuttleOffsets()), (std::vector<int32_t>{-4000}));
}

TEST(Wqasm, RejectsLengthsOffTheNanometreLattice) {
  // Lengths are micrometres with at most three decimals (whole nm) inside
  // +-1e6 um; anything else is an error, never a rounded or clamped value.
  for (const char *Bad :
       {"@shuttle row 0 0.0005", "@shuttle row 0 1e3",
        "@shuttle column 0 1.7320508075688772", "@shuttle row 0 1000000.001",
        "@shuttle row 0 -1000000.001", "@shuttle row 0 2147483.648",
        "@shuttle row 0 +1", "@shuttle rows [0] [0.0005]",
        "@slm [(1e3, 0)]", "@aod [0, 2147483.648] [0]"}) {
    auto P = parseWqasm(std::string("qubit[1] q;\n") + Bad + "\nh q[0];\n");
    EXPECT_FALSE(P.ok()) << Bad;
  }
  auto P = parseWqasm("qubit[1] q;\n@shuttle row 0 -1000000\n"
                      "@aod [-0.001, 1000000] [19.732]\nh q[0];\n");
  ASSERT_TRUE(P.ok()) << P.message();
  Span<const Annotation> Anns = P->annotationsOf(0);
  EXPECT_EQ(Anns[0].Offset, -1000000000);
  EXPECT_EQ(values(Anns[1].aodXs()), (std::vector<int32_t>{-1, 1000000000}));
  EXPECT_EQ(values(Anns[1].aodYs()), (std::vector<int32_t>{19732}));
}

TEST(Wqasm, RejectsParallelShuttleArityMismatch) {
  EXPECT_FALSE(
      parseWqasm("qubit[1] q;\n@shuttle columns [0, 1] [5]\nx q[0];\n")
          .ok());
}

TEST(Wqasm, TrailingAnnotationsPreserved) {
  auto P = parseWqasm("qubit[1] q;\nh q[0];\n@shuttle row 0 1\n");
  ASSERT_TRUE(P.ok()) << P.message();
  EXPECT_EQ(P->trailingAnnotations().size(), 1u);
}

TEST(Wqasm, RejectsUnknownAnnotation) {
  EXPECT_FALSE(parseWqasm("qubit[1] q;\n@teleport\nh q[0];\n").ok());
}

TEST(Wqasm, RejectsMalformedBind) {
  EXPECT_FALSE(parseWqasm("qubit[1] q;\n@bind q[0] nowhere 1\nh q[0];\n").ok());
}

TEST(Wqasm, AnnotationStrRoundTrips) {
  const char *Lines[] = {
      "@slm [(0, 0), (5.5, -2)]", "@aod [1, 3] [2, 4]",
      "@bind q[3] slm 2",         "@bind q[4] aod 1 0",
      "@transfer 2 (0, 1)",       "@shuttle row 0 7.5",
      "@shuttle column 1 -2.5",   "@raman global 0 1.5 0",
      "@raman local q[3] 0 0 2",  "@rydberg",
      "@shuttle columns [0, 2, 5] [5, -1.5, 2]",
      "@shuttle rows [0, 1] [2, 2]"};
  for (const char *Line : Lines) {
    std::string Source = std::string("qubit[9] q;\n") + Line + "\nh q[0];\n";
    auto P = parseWqasm(Source);
    ASSERT_TRUE(P.ok()) << Line << ": " << P.message();
    ASSERT_EQ(P->annotationsOf(0).size(), 1u) << Line;
    EXPECT_EQ(P->annotationsOf(0)[0].str(), Line);
  }
}

// --- Printer round trips ------------------------------------------------------

TEST(Printer, GoldenProgramsRoundTripByteIdentically) {
  int Seen = 0;
  for (const auto &Entry :
       std::filesystem::directory_iterator(WEAVER_TEST_DATA_DIR)) {
    if (Entry.path().extension() != ".wqasm")
      continue;
    std::ifstream In(Entry.path(), std::ios::binary);
    std::string Text((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
    auto P = parseWqasm(Text);
    ASSERT_TRUE(P.ok()) << Entry.path() << ": " << P.message();
    EXPECT_TRUE(printWqasm(*P) == Text) << Entry.path();
    ++Seen;
  }
  EXPECT_GE(Seen, 10);
}

TEST(Printer, EmitsParsableOpenQasm) {
  Circuit C(3);
  C.h(0).u3(0.1, -0.2, 0.3, 1).cz(0, 2).ccz(0, 1, 2).rz(0.5, 1).barrier();
  C.measureAll();
  std::string Text = printOpenQasm(C);
  auto Back = parseQasmCircuit(Text);
  ASSERT_TRUE(Back.ok()) << Back.message();
  EXPECT_EQ(Back->size(), C.size());
  EXPECT_EQ(printOpenQasm(*Back), Text) << "print->parse->print not stable";
}

TEST(Printer, PreservesUnitarySemantics) {
  Circuit C(3);
  C.h(0).t(1).cx(1, 2).rzz(0.7, 0, 2).sdg(2).swap(0, 1);
  auto Back = parseQasmCircuit(printOpenQasm(C));
  ASSERT_TRUE(Back.ok()) << Back.message();
  EXPECT_TRUE(sim::circuitsEquivalent(C, *Back));
}

namespace pre_sink {

// The renderers as they were before the printers wrote through
// TextWriter, kept verbatim with their numeral helpers: the differential
// reference for the sink. Calls that take a weaver type are qualified, so
// argument-dependent lookup cannot pick the library's renderer.

void appendDouble(std::string &Out, double Value) {
  // The longest %.17g rendering is 25 bytes ("-4.9406564584124654e-324").
  char Buf[32];
  auto R = std::to_chars(Buf, Buf + sizeof(Buf), Value,
                         std::chars_format::general, 17);
  Out.append(Buf, R.ptr);
}

void appendInt(std::string &Out, long long Value) {
  char Buf[24];
  auto R = std::to_chars(Buf, Buf + sizeof(Buf), Value);
  Out.append(Buf, R.ptr);
}

void appendMicrons(std::string &Out, int64_t Nm) {
  uint64_t Mag = Nm < 0 ? 0 - static_cast<uint64_t>(Nm) : Nm;
  if (Nm < 0)
    Out += '-';
  appendInt(Out, static_cast<long long>(Mag / 1000));
  if (unsigned Frac = Mag % 1000) {
    char Digits[] = {'.', static_cast<char>('0' + Frac / 100),
                     static_cast<char>('0' + Frac / 10 % 10),
                     static_cast<char>('0' + Frac % 10)};
    Out.append(Digits, Frac % 10 ? 4 : Frac % 100 ? 3 : 2);
  }
}

inline void appendPart(std::string &Out, std::string_view S) { Out += S; }
inline void appendPart(std::string &Out, char C) { Out += C; }
inline void appendPart(std::string &Out, int V) { appendInt(Out, V); }
inline void appendPart(std::string &Out, double V) { appendDouble(Out, V); }
template <typename... Ts>
void appendAll(std::string &Out, const Ts &...Parts) {
  (appendPart(Out, Parts), ...);
}

/// Appends " [v0, v1, ...]": lengths in micrometres, anything else (row
/// and column indices) as integers.
void appendList(std::string &Out, Span<const int32_t> Vals, bool Lengths) {
  Out += " [";
  for (size_t I = 0; I < Vals.size(); ++I) {
    if (I)
      Out += ", ";
    if (Lengths)
      appendMicrons(Out, Vals[I]);
    else
      appendInt(Out, Vals[I]);
  }
  Out += ']';
}

void appendAnnotation(std::string &Out, const Annotation &A) {
  appendAll(Out, '@', annotationKindName(A.Kind));
  switch (A.Kind) {
  case AnnotationKind::Slm:
    Out += " [";
    for (size_t I = 0; I < A.numTraps(); ++I) {
      Out += I ? ", (" : "(";
      appendMicrons(Out, A.trap(I).X);
      Out += ", ";
      appendMicrons(Out, A.trap(I).Y);
      Out += ')';
    }
    Out += ']';
    break;
  case AnnotationKind::Aod:
    appendList(Out, A.aodXs(), /*Lengths=*/true);
    appendList(Out, A.aodYs(), /*Lengths=*/true);
    break;
  case AnnotationKind::Bind:
    if (A.BindToSlm)
      appendAll(Out, " q[", A.Qubit, "] slm ", A.SlmIndex);
    else
      appendAll(Out, " q[", A.Qubit, "] aod ", A.AodCol, ' ', A.AodRow);
    break;
  case AnnotationKind::Transfer:
    appendAll(Out, ' ', A.SlmIndex, " (", A.AodCol, ", ", A.AodRow, ')');
    break;
  case AnnotationKind::Shuttle:
    appendAll(Out, A.ShuttleRow ? " row " : " column ", A.ShuttleIndex, ' ');
    appendMicrons(Out, A.Offset);
    break;
  case AnnotationKind::ShuttleParallel:
    Out += A.ShuttleRow ? " rows" : " columns";
    appendList(Out, A.shuttleIndices(), /*Lengths=*/false);
    appendList(Out, A.shuttleOffsets(), /*Lengths=*/true);
    break;
  case AnnotationKind::RamanGlobal:
    appendAll(Out, " global ", A.AngleX, ' ', A.AngleY, ' ', A.AngleZ);
    break;
  case AnnotationKind::RamanLocal:
    appendAll(Out, " local q[", A.Qubit, "] ", A.AngleX, ' ', A.AngleY, ' ',
              A.AngleZ);
    break;
  case AnnotationKind::Rydberg:
    break;
  }
}

void appendGate(std::string &Out, const circuit::Gate &G) {
  Out += gateName(G.kind());
  for (unsigned I = 0, E = G.numParams(); I < E; ++I)
    appendAll(Out, I ? ", " : "(", G.param(I));
  if (G.numParams() > 0)
    Out += ')';
  for (unsigned I = 0, E = G.numQubits(); I < E; ++I)
    appendAll(Out, I ? ", q[" : " q[", G.qubit(I), ']');
}

void printHeader(std::string &Out, const std::string &Version, int NumQubits,
                 int NumBits) {
  appendAll(Out, "OPENQASM ", Version, ";\n");
  if (NumQubits > 0)
    appendAll(Out, "qubit[", NumQubits, "] q;\n");
  if (NumBits > 0)
    appendAll(Out, "bit[", NumBits, "] c;\n");
}

std::string printWqasm(const WqasmProgram &Program) {
  std::string Out;
  printHeader(Out, Program.Version, Program.NumQubits, Program.NumBits);
  for (size_t S = 0; S < Program.Statements.size(); ++S) {
    for (const Annotation &A : Program.annotationsOf(S)) {
      pre_sink::appendAnnotation(Out, A);
      Out += '\n';
    }
    pre_sink::appendGate(Out, Program.Statements[S].Gate);
    Out += ";\n";
  }
  for (const Annotation &A : Program.trailingAnnotations()) {
    pre_sink::appendAnnotation(Out, A);
    Out += '\n';
  }
  return Out;
}

} // namespace pre_sink

TEST(Printer, SinkMatchesThePreSinkRendererAtExtremeValues) {
  const int32_t M = MaxCoordinateNm;
  const std::vector<int32_t> Lengths = {M, -M, -1, 0, 1, 999, -1010, 14400};
  const int Ints[] = {INT_MIN, -1, 0, 7, INT_MAX};
  const double Angles[] = {-0.0,
                           0.0,
                           4.9406564584124654e-324,
                           -4.9406564584124654e-324,
                           -1.7976931348623157e308,
                           1.7976931348623157e308,
                           0.35,
                           -3.141592653589793};

  std::vector<Annotation> Anns;
  std::vector<Vec2> Traps;
  for (int32_t X : Lengths)
    for (int32_t Y : Lengths)
      Traps.push_back({X, Y});
  Anns.push_back(Annotation::slm(Traps));
  Anns.push_back(Annotation::aod(Lengths, Lengths));
  for (int I : Ints) {
    Anns.push_back(Annotation::bindSlm(I, -I - 1));
    Anns.push_back(Annotation::bindAod(I, -I - 1, I));
    Anns.push_back(Annotation::transfer(I, -I - 1, I));
    for (int32_t L : Lengths) {
      Anns.push_back(Annotation::shuttle(/*Row=*/true, I, L));
      Anns.push_back(Annotation::shuttle(/*Row=*/false, I, L));
    }
  }
  Anns.push_back(Annotation::shuttleParallel(
      /*Rows=*/true, {INT_MIN, -1, 0, 7, INT_MAX, 3, 2, 1}, Lengths));
  Anns.push_back(Annotation::shuttleParallel(/*Rows=*/false, {}, {}));
  for (double A : Angles) {
    Anns.push_back(Annotation::ramanGlobal(A, -A, 0.35));
    Anns.push_back(Annotation::ramanLocal(INT_MAX, 0.0, A, -A));
  }
  Anns.push_back(Annotation::rydberg());
  // Lines several times longer than the sink's chunk.
  std::vector<Vec2> ManyTraps;
  std::vector<int> ManyIndices;
  std::vector<int32_t> ManyOffsets;
  for (int I = 0; I < 12000; ++I) {
    ManyTraps.push_back({Lengths[I % Lengths.size()], -M + I});
    ManyIndices.push_back(I);
    ManyOffsets.push_back(Lengths[(I * 5) % Lengths.size()]);
  }
  Anns.push_back(Annotation::slm(ManyTraps));
  Anns.push_back(Annotation::shuttleParallel(/*Rows=*/false, ManyIndices,
                                             ManyOffsets));

  for (const Annotation &A : Anns) {
    std::string Want;
    pre_sink::appendAnnotation(Want, A);
    ASSERT_EQ(A.str(), Want);
  }
  ASSERT_GT(Anns.back().str().size(), 100000u);

  // Every gate kind, operands and angles at the extremes, in a program
  // that carries every annotation above.
  WqasmProgram P;
  P.NumQubits = 3;
  P.NumBits = 3;
  Circuit C(3);
  std::vector<circuit::Gate> Gates;
  for (unsigned K = 0; K < circuit::NumGateKinds; ++K)
    for (size_t V = 0; V < std::size(Angles); ++V) {
      int Q = Ints[V % std::size(Ints)];
      double A = Angles[V];
      circuit::Gate G = circuit::Gate::fromStorage(
          static_cast<GateKind>(K), {Q, -Q - 1, 2}, {A, -A, Angles[0]});
      std::string Want;
      pre_sink::appendGate(Want, G);
      ASSERT_EQ(G.str(), Want);
      Gates.push_back(G);
      C.append(circuit::Gate::fromStorage(static_cast<GateKind>(K),
                                          {0, 1, 2}, {A, -A, 0.35}));
    }
  // Annotation I precedes statement I % (statement count).
  for (size_t S = 0; S < Gates.size(); ++S) {
    for (size_t I = S; I < Anns.size(); I += Gates.size())
      P.Annotations.push_back(Anns[I]);
    P.addStatement(Gates[S]);
  }
  for (const Annotation &A : {Anns.front(), Anns.back(), Annotation::rydberg()})
    P.Annotations.push_back(A);
  EXPECT_TRUE(printWqasm(P) == pre_sink::printWqasm(P));

  std::string Want;
  pre_sink::printHeader(Want, "3.0", C.numQubits(),
                        static_cast<int>(C.count(GateKind::Measure)));
  for (const circuit::Gate &G : C) {
    pre_sink::appendGate(Want, G);
    Want += ";\n";
  }
  EXPECT_EQ(printOpenQasm(C), Want);
}

TEST(Printer, WqasmRoundTripStable) {
  WqasmProgram P;
  P.NumQubits = 2;
  P.Annotations.push_back(Annotation::ramanLocal(0, 0, -1.5707963267948966,
                                                 3.141592653589793));
  P.addStatement(circuit::Gate(GateKind::H, {0}));
  P.Annotations.push_back(Annotation::shuttle(true, 0, 3500));
  P.Annotations.push_back(Annotation::rydberg());
  P.addStatement(circuit::Gate(GateKind::CZ, {0, 1}));
  std::string Text = printWqasm(P);
  auto Back = parseWqasm(Text);
  ASSERT_TRUE(Back.ok()) << Back.message();
  EXPECT_EQ(printWqasm(*Back), Text);
  EXPECT_EQ(Back->numAnnotations(), 3u);
}

TEST(FlatProgram, StatementsOwnConsecutiveRangesInExecutionOrder) {
  WqasmProgram P;
  P.NumQubits = 2;
  P.addStatement(circuit::Gate(GateKind::H, {0}));
  P.Annotations.push_back(Annotation::shuttle(true, 0, 1000));
  P.Annotations.push_back(Annotation::rydberg());
  P.addStatement(circuit::Gate(GateKind::H, {1}));
  P.addStatement(circuit::Gate(GateKind::X, {0}));
  P.Annotations.push_back(Annotation::ramanGlobal(1, 2, 3));
  P.addStatement(circuit::Gate(GateKind::X, {1}));
  P.Annotations.push_back(Annotation::shuttle(false, 1, -2000));

  EXPECT_EQ(P.numAnnotations(), 4u);
  const size_t Sizes[] = {0, 2, 0, 1};
  for (size_t S = 0; S < std::size(Sizes); ++S)
    EXPECT_EQ(P.annotationsOf(S).size(), Sizes[S]) << S;
  // Zero-copy: each range is a view into the one annotation array.
  EXPECT_EQ(P.annotationsOf(1).begin(), &P.Annotations[0]);
  EXPECT_EQ(P.annotationsOf(3).begin(), &P.Annotations[2]);
  ASSERT_EQ(P.trailingAnnotations().size(), 1u);
  EXPECT_EQ(P.trailingAnnotations().begin(), &P.Annotations[3]);
  EXPECT_EQ(printWqasm(P), "OPENQASM 3.0;\nqubit[2] q;\nh q[0];\n"
                           "@shuttle row 0 1\n@rydberg\nh q[1];\nx q[0];\n"
                           "@raman global 1 2 3\nx q[1];\n"
                           "@shuttle column 1 -2\n");
}

TEST(FlatProgram, EmptyProgramHasNoAnnotations) {
  WqasmProgram P;
  EXPECT_EQ(P.numAnnotations(), 0u);
  EXPECT_TRUE(P.trailingAnnotations().empty());
  EXPECT_EQ(printWqasm(P), "OPENQASM 3.0;\n");
}

TEST(Annotation, PayloadHoldsOnlyTheListsOfItsKind) {
  Annotation Slm = Annotation::slm({{1, 2}, {3, 4}});
  EXPECT_EQ(values(Slm.payload()), (std::vector<int32_t>{1, 2, 3, 4}));
  ASSERT_EQ(Slm.numTraps(), 2u);
  EXPECT_EQ(Slm.trap(1), (Vec2{3, 4}));
  EXPECT_TRUE(Slm.aodXs().empty() && Slm.shuttleOffsets().empty());

  Annotation Aod = Annotation::aod({5, 6, 7}, {8});
  EXPECT_EQ(values(Aod.payload()), (std::vector<int32_t>{5, 6, 7, 8}));
  EXPECT_EQ(Aod.payloadSplit(), 3u);
  EXPECT_EQ(values(Aod.aodXs()), (std::vector<int32_t>{5, 6, 7}));
  EXPECT_EQ(values(Aod.aodYs()), (std::vector<int32_t>{8}));
  EXPECT_EQ(Aod.numTraps(), 0u);
  EXPECT_TRUE(Aod.shuttleIndices().empty());

  Annotation Par = Annotation::shuttleParallel(true, {0, 2}, {-9, 9});
  EXPECT_EQ(values(Par.payload()), (std::vector<int32_t>{0, 2, -9, 9}));
  EXPECT_EQ(values(Par.shuttleIndices()), (std::vector<int32_t>{0, 2}));
  EXPECT_EQ(values(Par.shuttleOffsets()), (std::vector<int32_t>{-9, 9}));
  EXPECT_TRUE(Par.aodYs().empty());

  // Copies own their payload; the list-free forms carry none.
  Annotation Copy = Par;
  EXPECT_NE(Copy.payload().data(), Par.payload().data());
  EXPECT_EQ(Copy.str(), Par.str());
  for (const Annotation &A :
       {Annotation::bindSlm(0, 1), Annotation::transfer(1, 2, 3),
        Annotation::shuttle(false, 1, 2), Annotation::ramanGlobal(1, 2, 3),
        Annotation::rydberg(), Annotation::shuttleParallel(false, {}, {})})
    EXPECT_TRUE(A.payload().empty()) << A.str();
}
