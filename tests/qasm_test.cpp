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

#include <filesystem>
#include <fstream>

using namespace weaver;
using namespace weaver::qasm;
using circuit::Circuit;
using circuit::GateKind;

// --- Lexer ---------------------------------------------------------------

namespace {

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
  EXPECT_EQ(P->Statements[0].Annotations[0].SlmIndex, 2147483647);
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
  EXPECT_EQ(P->Statements[0].Annotations[0].Qubit, 1);
  EXPECT_EQ(P->Statements[0].Annotations[1].Qubit, 1);
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
  const auto &Anns = P->Statements[0].Annotations;
  ASSERT_EQ(Anns.size(), 10u);
  EXPECT_EQ(Anns[0].Kind, AnnotationKind::Slm);
  EXPECT_EQ(Anns[0].TrapPositions.size(), 2u);
  EXPECT_EQ(Anns[1].AodXs.size(), 2u);
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
  const auto &Anns = P->Statements[0].Annotations;
  ASSERT_EQ(Anns.size(), 2u);
  EXPECT_EQ(Anns[0].Kind, AnnotationKind::ShuttleParallel);
  EXPECT_FALSE(Anns[0].ShuttleRow);
  EXPECT_EQ(Anns[0].ShuttleIndices, (std::vector<int>{0, 2, 3}));
  EXPECT_EQ(Anns[0].ShuttleOffsets, (std::vector<int32_t>{5000, -1500, 2000}));
  EXPECT_EQ(Anns[1].Kind, AnnotationKind::ShuttleParallel);
  EXPECT_TRUE(Anns[1].ShuttleRow);
  EXPECT_EQ(Anns[1].ShuttleIndices, (std::vector<int>{1}));
  EXPECT_EQ(Anns[1].ShuttleOffsets, (std::vector<int32_t>{-4000}));
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
  const auto &Anns = P->Statements[0].Annotations;
  EXPECT_EQ(Anns[0].Offset, -1000000000);
  EXPECT_EQ(Anns[1].AodXs, (std::vector<int32_t>{-1, 1000000000}));
  EXPECT_EQ(Anns[1].AodYs, (std::vector<int32_t>{19732}));
}

TEST(Wqasm, RejectsParallelShuttleArityMismatch) {
  EXPECT_FALSE(
      parseWqasm("qubit[1] q;\n@shuttle columns [0, 1] [5]\nx q[0];\n")
          .ok());
}

TEST(Wqasm, TrailingAnnotationsPreserved) {
  auto P = parseWqasm("qubit[1] q;\nh q[0];\n@shuttle row 0 1\n");
  ASSERT_TRUE(P.ok()) << P.message();
  EXPECT_EQ(P->TrailingAnnotations.size(), 1u);
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
    ASSERT_EQ(P->Statements[0].Annotations.size(), 1u) << Line;
    EXPECT_EQ(P->Statements[0].Annotations[0].str(), Line);
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

TEST(Printer, WqasmRoundTripStable) {
  WqasmProgram P;
  P.NumQubits = 2;
  circuit::Gate H(GateKind::H, {0});
  GateStatement S{H, {Annotation::ramanLocal(0, 0, -1.5707963267948966,
                                             3.141592653589793)}};
  P.Statements.push_back(S);
  GateStatement S2{circuit::Gate(GateKind::CZ, {0, 1}),
                   {Annotation::shuttle(true, 0, 3500), Annotation::rydberg()}};
  P.Statements.push_back(S2);
  std::string Text = printWqasm(P);
  auto Back = parseWqasm(Text);
  ASSERT_TRUE(Back.ok()) << Back.message();
  EXPECT_EQ(printWqasm(*Back), Text);
  EXPECT_EQ(Back->numAnnotations(), 3u);
}

TEST(AnnotationView, IteratesInExecutionOrderSkippingEmptyStatements) {
  WqasmProgram P;
  P.NumQubits = 2;
  P.Statements.push_back({circuit::Gate(GateKind::H, {0}), {}});
  P.Statements.push_back(
      {circuit::Gate(GateKind::H, {1}),
       {Annotation::shuttle(true, 0, 1000), Annotation::rydberg()}});
  P.Statements.push_back({circuit::Gate(GateKind::X, {0}), {}});
  P.Statements.push_back({circuit::Gate(GateKind::X, {1}),
                          {Annotation::ramanGlobal(1, 2, 3)}});
  P.TrailingAnnotations = {Annotation::shuttle(false, 1, -2000)};

  AnnotationView View(P);
  EXPECT_EQ(View.size(), P.numAnnotations());
  std::vector<const Annotation *> Seen;
  for (const Annotation &A : View)
    Seen.push_back(&A);
  ASSERT_EQ(Seen.size(), 4u);
  // Zero-copy: the iterator yields the program's own annotation objects.
  EXPECT_EQ(Seen[0], &P.Statements[1].Annotations[0]);
  EXPECT_EQ(Seen[1], &P.Statements[1].Annotations[1]);
  EXPECT_EQ(Seen[2], &P.Statements[3].Annotations[0]);
  EXPECT_EQ(Seen[3], &P.TrailingAnnotations[0]);
}

TEST(AnnotationView, EmptyProgramYieldsNothing) {
  WqasmProgram P;
  AnnotationView View(P);
  EXPECT_EQ(View.begin(), View.end());
  EXPECT_EQ(View.size(), 0u);
}
