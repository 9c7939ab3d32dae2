//===- tests/core_test.cpp - Weaver compiler unit + property tests --------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/ClauseColoring.h"
#include "core/WChecker.h"
#include "core/WeaverCompiler.h"
#include "qaoa/Builder.h"
#include "qasm/Parser.h"
#include "qasm/Printer.h"
#include "sat/Generator.h"
#include "sim/StateVector.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>

using namespace weaver;
using namespace weaver::core;
using sat::Clause;
using sat::CnfFormula;

namespace {

CnfFormula paperExample() {
  // The running example of Fig. 5: [[-1,-2,-3], [4,-5,6], [3,5,-6]].
  return CnfFormula(6, {Clause{-1, -2, -3}, Clause{4, -5, 6},
                        Clause{3, 5, -6}});
}

} // namespace

// --- Clause colouring ---------------------------------------------------------

TEST(ClauseColoring, PaperExampleUsesTwoColors) {
  ClauseColoring C = colorClausesDSatur(paperExample());
  EXPECT_EQ(C.numColors(), 2);
  EXPECT_TRUE(C.isValid(paperExample()));
  // Clauses 0 and 1 are variable-disjoint; clause 2 conflicts with both.
  EXPECT_EQ(C.ColorOf[0], C.ColorOf[1]);
  EXPECT_NE(C.ColorOf[2], C.ColorOf[0]);
}

TEST(ClauseColoring, SingleClause) {
  CnfFormula F(3, {Clause{1, 2, 3}});
  ClauseColoring C = colorClausesDSatur(F);
  EXPECT_EQ(C.numColors(), 1);
}

TEST(ClauseColoring, FullyConflictingClauses) {
  CnfFormula F(3, {Clause{1, 2, 3}, Clause{1, 2, 3}, Clause{-1, -2, -3}});
  ClauseColoring C = colorClausesDSatur(F);
  EXPECT_EQ(C.numColors(), 3);
  EXPECT_TRUE(C.isValid(F));
}

TEST(ClauseColoring, EmptyFormula) {
  CnfFormula F(4, {});
  EXPECT_EQ(colorClausesDSatur(F).numColors(), 0);
}

class ColoringProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ColoringProperty, DSaturIsValidAndNoWorseThanFirstFit) {
  CnfFormula F = sat::RandomSatGenerator(GetParam()).generate(15, 60);
  ClauseColoring DSatur = colorClausesDSatur(F);
  ClauseColoring FirstFit = colorClausesFirstFit(F);
  EXPECT_TRUE(DSatur.isValid(F));
  EXPECT_TRUE(FirstFit.isValid(F));
  EXPECT_LE(DSatur.numColors(), FirstFit.numColors() + 1)
      << "DSatur should not be substantially worse than first-fit";
  // Lower bound: at least ceil(maxOccurrences) colours are needed for the
  // busiest variable.
  std::vector<int> Occurrences(F.numVariables() + 1, 0);
  for (const Clause &C : F.clauses())
    for (sat::Literal L : C)
      Occurrences[L.variable()]++;
  int MaxOcc = *std::max_element(Occurrences.begin(), Occurrences.end());
  EXPECT_GE(DSatur.numColors(), MaxOcc);
  // ClausesByColor partitions all clauses.
  size_t Total = 0;
  for (const auto &Group : DSatur.ClausesByColor)
    Total += Group.size();
  EXPECT_EQ(Total, F.numClauses());
}

INSTANTIATE_TEST_SUITE_P(Seeds, ColoringProperty,
                         ::testing::Values(10, 20, 30, 40, 50, 60));

namespace {

/// The pre-rewrite quadratic DSatur (linear scan per step over set-based
/// saturation state), kept verbatim as the behavioural reference: the
/// bucketed implementation must reproduce its selection order — and thus
/// its colouring — exactly.
std::vector<int> referenceDSatur(const CnfFormula &F) {
  size_t N = F.numClauses();
  std::vector<std::vector<size_t>> Adj(N);
  for (size_t I = 0; I < N; ++I)
    for (size_t J = 0; J < N; ++J)
      if (I != J && F.clause(I).sharesVariableWith(F.clause(J)))
        Adj[I].push_back(J);
  // The dense formulation has a self-loop for clauses repeating a variable.
  for (size_t I = 0; I < N; ++I) {
    const Clause &C = F.clause(I);
    for (size_t A = 0; A < C.size(); ++A)
      for (size_t B = 0; B < A; ++B)
        if (C[A].variable() == C[B].variable() &&
            (Adj[I].empty() || Adj[I].back() != I)) {
          Adj[I].push_back(I);
          std::sort(Adj[I].begin(), Adj[I].end());
        }
  }
  std::vector<int> ColorOf(N, -1);
  std::vector<std::set<int>> NeighbourColors(N);
  for (size_t Step = 0; Step < N; ++Step) {
    size_t Best = N;
    for (size_t I = 0; I < N; ++I) {
      if (ColorOf[I] != -1)
        continue;
      if (Best == N ||
          NeighbourColors[I].size() > NeighbourColors[Best].size() ||
          (NeighbourColors[I].size() == NeighbourColors[Best].size() &&
           Adj[I].size() > Adj[Best].size()))
        Best = I;
    }
    int Color = 0;
    while (NeighbourColors[Best].count(Color))
      ++Color;
    ColorOf[Best] = Color;
    for (size_t Nb : Adj[Best])
      NeighbourColors[Nb].insert(Color);
  }
  return ColorOf;
}

/// Mixed-width formula with unit/binary clauses and a repeated variable.
CnfFormula awkwardFormula() {
  return CnfFormula(7, {Clause{1}, Clause{-2, 3}, Clause{-3, -4, -5},
                        Clause{2, 4}, Clause{-1, 4, 5}, Clause{6, -6, 7},
                        Clause{5}, Clause{-7, 1, 2}});
}

} // namespace

TEST(ClauseColoring, BucketedDSaturMatchesQuadraticReference) {
  for (uint64_t Seed : {1u, 7u, 23u, 91u}) {
    CnfFormula F = sat::RandomSatGenerator(Seed).generate(18, 75);
    EXPECT_EQ(colorClausesDSatur(F).ColorOf, referenceDSatur(F))
        << "seed " << Seed;
  }
  CnfFormula Awkward = awkwardFormula();
  EXPECT_EQ(colorClausesDSatur(Awkward).ColorOf, referenceDSatur(Awkward));
  // Paper scale: 430 and 1,065 clauses.
  for (int Vars : {100, 250}) {
    CnfFormula F = sat::satlibInstance(Vars, 1);
    EXPECT_EQ(colorClausesDSatur(F).ColorOf, referenceDSatur(F))
        << "uf" << Vars;
  }
  // 150 clauses sharing variable 1 need 150 colours, so the neighbour
  // colour bitsets widen past one and two 64-bit words.
  std::vector<Clause> Clique;
  for (int I = 0; I < 150; ++I)
    Clique.push_back(Clause{1, 2 + I % 40, -(42 + I % 7)});
  CnfFormula Wide(48, Clique);
  ClauseColoring WideColoring = colorClausesDSatur(Wide);
  EXPECT_EQ(WideColoring.numColors(), 150);
  EXPECT_EQ(WideColoring.ColorOf, referenceDSatur(Wide));
}

TEST(ClauseColoring, ConflictGraphMatchesPairwisePredicate) {
  CnfFormula F = awkwardFormula();
  std::vector<std::vector<size_t>> Adj = buildClauseConflictGraph(F);
  ASSERT_EQ(Adj.size(), F.numClauses());
  for (size_t I = 0; I < F.numClauses(); ++I)
    for (size_t J = 0; J < F.numClauses(); ++J) {
      bool Conflicts =
          I != J && F.clause(I).sharesVariableWith(F.clause(J));
      bool Listed =
          std::find(Adj[I].begin(), Adj[I].end(), J) != Adj[I].end();
      if (I != J) {
        EXPECT_EQ(Listed, Conflicts) << I << " vs " << J;
      }
    }
  // Clause 5 repeats variable 6, so it carries the dense self-loop.
  EXPECT_NE(std::find(Adj[5].begin(), Adj[5].end(), 5u), Adj[5].end());
  EXPECT_EQ(std::find(Adj[0].begin(), Adj[0].end(), 0u), Adj[0].end());
}

TEST(ClauseColoring, IsValidMatchesPairwiseCheck) {
  CnfFormula F = awkwardFormula();
  sat::RandomSatGenerator Gen(3);
  // Random colourings (valid and invalid alike) must agree with the
  // brute-force pairwise definition.
  std::mt19937_64 Rng(5);
  for (int Trial = 0; Trial < 50; ++Trial) {
    ClauseColoring C;
    for (size_t I = 0; I < F.numClauses(); ++I)
      C.ColorOf.push_back(static_cast<int>(Rng() % 4));
    bool Reference = true;
    for (size_t I = 0; I < F.numClauses() && Reference; ++I)
      for (size_t J = I + 1; J < F.numClauses(); ++J)
        if (C.ColorOf[I] == C.ColorOf[J] &&
            F.clause(I).sharesVariableWith(F.clause(J))) {
          Reference = false;
          break;
        }
    EXPECT_EQ(C.isValid(F), Reference) << "trial " << Trial;
  }
  // Size mismatch is invalid.
  ClauseColoring Short;
  Short.ColorOf = {0};
  EXPECT_FALSE(Short.isValid(F));
}

TEST(ClauseColoring, FirstFitUsesSmallestFreeColourInInputOrder) {
  for (uint64_t Seed : {2u, 13u}) {
    CnfFormula F = sat::RandomSatGenerator(Seed).generate(12, 50);
    ClauseColoring C = colorClausesFirstFit(F);
    ASSERT_TRUE(C.isValid(F));
    // Reference: greedy smallest-free-colour over the pairwise predicate.
    std::vector<int> Expected(F.numClauses(), -1);
    for (size_t I = 0; I < F.numClauses(); ++I) {
      std::set<int> Used;
      for (size_t J = 0; J < I; ++J)
        if (F.clause(I).sharesVariableWith(F.clause(J)))
          Used.insert(Expected[J]);
      int Color = 0;
      while (Used.count(Color))
        ++Color;
      Expected[I] = Color;
    }
    EXPECT_EQ(C.ColorOf, Expected) << "seed " << Seed;
  }
}

// --- End-to-end compilation + verification -------------------------------------

TEST(WeaverCompiler, PaperExampleVerifies) {
  WeaverOptions Opt;
  Opt.RunChecker = true;
  auto R = compileWeaver(paperExample(), Opt);
  ASSERT_TRUE(R.ok()) << R.message();
  ASSERT_TRUE(R->Check.has_value());
  EXPECT_TRUE(R->Check->StructuralOk) << R->Check->Diagnostic;
  EXPECT_TRUE(R->Check->UnitaryChecked);
  EXPECT_TRUE(R->Check->UnitaryOk) << R->Check->Diagnostic;
  EXPECT_TRUE(R->CompressionUsed);
  EXPECT_GT(R->Stats.RydbergPulses, 0u);
  EXPECT_EQ(R->Stats.CczGates, 6u); // 3 clauses x 2 CCZ
}

TEST(WeaverCompiler, LadderModeVerifies) {
  WeaverOptions Opt;
  Opt.RunChecker = true;
  Opt.Compression = WeaverOptions::CompressionMode::Off;
  auto R = compileWeaver(paperExample(), Opt);
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_FALSE(R->CompressionUsed);
  EXPECT_TRUE(R->Check->passed()) << R->Check->Diagnostic;
  EXPECT_EQ(R->Stats.CczGates, 0u);
  EXPECT_GT(R->Stats.CzGates, R->Stats.RamanGlobalPulses);
}

TEST(WeaverCompiler, CompressionReducesPulses) {
  WeaverOptions On, Off;
  On.Compression = WeaverOptions::CompressionMode::On;
  Off.Compression = WeaverOptions::CompressionMode::Off;
  auto ROn = compileWeaver(paperExample(), On);
  auto ROff = compileWeaver(paperExample(), Off);
  ASSERT_TRUE(ROn.ok() && ROff.ok());
  EXPECT_LT(ROn->Stats.totalPulses(), ROff->Stats.totalPulses());
  EXPECT_LT(ROn->Stats.Duration, ROff->Stats.Duration);
}

class CompileProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(CompileProperty, RandomSmallFormulasVerifyEndToEnd) {
  auto [Seed, Compress] = GetParam();
  CnfFormula F = sat::RandomSatGenerator(Seed).generate(8, 16);
  WeaverOptions Opt;
  Opt.RunChecker = true;
  Opt.Compression = Compress ? WeaverOptions::CompressionMode::On
                             : WeaverOptions::CompressionMode::Off;
  auto R = compileWeaver(F, Opt);
  ASSERT_TRUE(R.ok()) << R.message();
  ASSERT_TRUE(R->Check.has_value());
  EXPECT_TRUE(R->Check->StructuralOk) << R->Check->Diagnostic;
  EXPECT_TRUE(R->Check->UnitaryChecked);
  EXPECT_TRUE(R->Check->UnitaryOk) << R->Check->Diagnostic;
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndModes, CompileProperty,
    ::testing::Combine(::testing::Values(101, 102, 103, 104),
                       ::testing::Bool()));

TEST(WeaverCompiler, MixedClauseWidthsVerify) {
  CnfFormula F(5, {Clause{1}, Clause{-2, 3}, Clause{-3, -4, -5},
                   Clause{2, 4}, Clause{-1, 4, 5}});
  WeaverOptions Opt;
  Opt.RunChecker = true;
  auto R = compileWeaver(F, Opt);
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_TRUE(R->Check->passed()) << R->Check->Diagnostic;
}

TEST(WeaverCompiler, TwoLayersVerify) {
  WeaverOptions Opt;
  Opt.RunChecker = true;
  Opt.Qaoa.Layers = 2;
  auto R = compileWeaver(paperExample(), Opt);
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_TRUE(R->Check->passed()) << R->Check->Diagnostic;
}

TEST(WeaverCompiler, MeasureEmitsMeasurements) {
  WeaverOptions Opt;
  Opt.Measure = true;
  auto R = compileWeaver(paperExample(), Opt);
  ASSERT_TRUE(R.ok()) << R.message();
  size_t Measures = 0;
  for (const auto &S : R->Program.Statements)
    Measures += S.Gate.kind() == circuit::GateKind::Measure;
  EXPECT_EQ(Measures, 6u);
}

TEST(WeaverCompiler, EmptyFormulaCompiles) {
  CnfFormula F(3, {});
  WeaverOptions Opt;
  Opt.RunChecker = true;
  auto R = compileWeaver(F, Opt);
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_TRUE(R->Check->passed()) << R->Check->Diagnostic;
}

TEST(WeaverCompiler, GeneratedWqasmParsesBack) {
  WeaverOptions Opt;
  auto R = compileWeaver(paperExample(), Opt);
  ASSERT_TRUE(R.ok()) << R.message();
  std::string Text = qasm::printWqasm(R->Program);
  auto Back = qasm::parseWqasm(Text);
  ASSERT_TRUE(Back.ok()) << Back.message();
  EXPECT_EQ(Back->Statements.size(), R->Program.Statements.size());
  EXPECT_EQ(Back->numAnnotations(), R->Program.numAnnotations());
  // The re-parsed program still passes the checker.
  CheckReport Report = checkWqasm(*Back, Opt.Hw);
  EXPECT_TRUE(Report.StructuralOk) << Report.Diagnostic;
}

TEST(WeaverCompiler, FirstFitColoringStillVerifies) {
  WeaverOptions Opt;
  Opt.UseDSatur = false;
  Opt.RunChecker = true;
  auto R = compileWeaver(paperExample(), Opt);
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_TRUE(R->Check->passed()) << R->Check->Diagnostic;
}

// --- wChecker negative cases ---------------------------------------------------

TEST(WChecker, DetectsTamperedGate) {
  WeaverOptions Opt;
  auto R = compileWeaver(paperExample(), Opt);
  ASSERT_TRUE(R.ok());
  qasm::WqasmProgram Tampered = R->Program;
  // Flip the first CCZ statement to a CZ on different qubits.
  for (auto &S : Tampered.Statements)
    if (S.Gate.kind() == circuit::GateKind::CCZ) {
      S.Gate = circuit::Gate(circuit::GateKind::CZ, {0, 1});
      break;
    }
  CheckReport Report = checkWqasm(Tampered, Opt.Hw);
  EXPECT_FALSE(Report.StructuralOk);
}

TEST(WChecker, DetectsWrongRamanAngle) {
  WeaverOptions Opt;
  auto R = compileWeaver(paperExample(), Opt);
  ASSERT_TRUE(R.ok());
  qasm::WqasmProgram Tampered = R->Program;
  for (auto &S : Tampered.Statements)
    for (auto &A : S.Annotations)
      if (A.Kind == qasm::AnnotationKind::RamanLocal) {
        A.AngleX += 0.1;
        CheckReport Report = checkWqasm(Tampered, Opt.Hw);
        EXPECT_FALSE(Report.StructuralOk);
        return;
      }
  FAIL() << "no local Raman annotation found";
}

TEST(WChecker, DetectsMissingPulse) {
  WeaverOptions Opt;
  auto R = compileWeaver(paperExample(), Opt);
  ASSERT_TRUE(R.ok());
  qasm::WqasmProgram Tampered = R->Program;
  for (auto &S : Tampered.Statements)
    if (!S.Annotations.empty() &&
        S.Annotations.back().Kind == qasm::AnnotationKind::Rydberg) {
      S.Annotations.pop_back();
      CheckReport Report = checkWqasm(Tampered, Opt.Hw);
      EXPECT_FALSE(Report.StructuralOk);
      return;
    }
  FAIL() << "no Rydberg annotation found";
}

TEST(WChecker, DetectsExtraLogicalGate) {
  WeaverOptions Opt;
  auto R = compileWeaver(paperExample(), Opt);
  ASSERT_TRUE(R.ok());
  qasm::WqasmProgram Tampered = R->Program;
  Tampered.Statements.push_back(
      qasm::GateStatement{circuit::Gate(circuit::GateKind::H, {0}), {}});
  CheckReport Report = checkWqasm(Tampered, Opt.Hw);
  EXPECT_FALSE(Report.StructuralOk);
}

/// Builds a checker input whose only content is an AOD grid (columns at 0,
/// 5, 10 um) followed by one parallel shuttle batch (offsets in nm) — the
/// minimal program exercising the batched-motion validation path.
static qasm::WqasmProgram
parallelShuttleProgram(std::vector<int> Indices,
                       std::vector<int32_t> Offsets) {
  qasm::WqasmProgram P;
  P.TrailingAnnotations = {
      qasm::Annotation::aod({0, 5000, 10000}, {2000}),
      qasm::Annotation::shuttleParallel(false, std::move(Indices),
                                        std::move(Offsets))};
  return P;
}

TEST(WChecker, AcceptsValidParallelShuttleBatch) {
  CheckReport Report = checkWqasm(
      parallelShuttleProgram({0, 1, 2}, {3000, 2000, 1000}), {});
  EXPECT_TRUE(Report.StructuralOk) << Report.Diagnostic;
}

TEST(WChecker, RejectsParallelShuttleWithOverlappingColumns) {
  CheckReport Report =
      checkWqasm(parallelShuttleProgram({1, 1}, {1000, 1000}), {});
  EXPECT_FALSE(Report.StructuralOk);
  EXPECT_NE(Report.Diagnostic.find("ascending"), std::string::npos)
      << Report.Diagnostic;
}

TEST(WChecker, RejectsParallelShuttleOrderInversion) {
  // Column 0 would end at 7, past column 1's unmoved 5: simultaneous
  // traps may not cross.
  CheckReport Report =
      checkWqasm(parallelShuttleProgram({0}, {7000}), {});
  EXPECT_FALSE(Report.StructuralOk);
  EXPECT_NE(Report.Diagnostic.find("cross or crowd"), std::string::npos)
      << Report.Diagnostic;
}

TEST(WChecker, RejectsParallelShuttleSubMinimumSpacing) {
  // Columns 0 and 1 both move right but end 0.4 apart — below the
  // minimum AOD separation even though their order is preserved.
  CheckReport Report = checkWqasm(
      parallelShuttleProgram({0, 1}, {5600, 1000}), {});
  EXPECT_FALSE(Report.StructuralOk);
  EXPECT_NE(Report.Diagnostic.find("crowd"), std::string::npos)
      << Report.Diagnostic;
}

TEST(WChecker, GlobalRamanCoversOnlyBoundAtoms) {
  // A global Raman pulse rotates the atoms present at the pulse (paper
  // §6), so the statements it implements must act on exactly the qubits
  // bound at that moment: matching the atom count is not enough.
  const std::string Head = "OPENQASM 3.0;\nqubit[7] q;\n"
                           "@slm [(0, 0), (6, 0)]\n"
                           "@bind q[0] slm 0\n@bind q[1] slm 1\n"
                           "@raman global 3.1415926535897931 0 0\n";
  auto Good = qasm::parseWqasm(Head + "x q[0];\nx q[1];\n");
  ASSERT_TRUE(Good.ok()) << Good.message();
  CheckReport Covered = checkWqasm(*Good, {});
  EXPECT_TRUE(Covered.StructuralOk) << Covered.Diagnostic;
  for (const char *Tail :
       {"x q[5];\nx q[6];\n", "x q[0];\nx q[5];\n", "x q[1];\nx q[1];\n"}) {
    auto Bad = qasm::parseWqasm(Head + Tail);
    ASSERT_TRUE(Bad.ok()) << Bad.message();
    CheckReport Report = checkWqasm(*Bad, {});
    EXPECT_FALSE(Report.StructuralOk) << Tail;
    EXPECT_NE(Report.Diagnostic.find("does not cover"), std::string::npos)
        << Report.Diagnostic;
  }
}

TEST(WChecker, UnitaryCheckCatchesSemanticDrift) {
  // Build a program whose pulses are self-consistent but implement a
  // different unitary than the reference.
  WeaverOptions Opt;
  auto R = compileWeaver(paperExample(), Opt);
  ASSERT_TRUE(R.ok());
  qaoa::QaoaParams Wrong;
  Wrong.Gamma = 0.123; // reference with the wrong angle
  circuit::Circuit Reference =
      qaoa::buildQaoaCircuit(paperExample(), Wrong);
  CheckReport Report = checkWqasm(R->Program, Opt.Hw, &Reference);
  EXPECT_TRUE(Report.StructuralOk) << Report.Diagnostic;
  EXPECT_TRUE(Report.UnitaryChecked);
  EXPECT_FALSE(Report.UnitaryOk);
}

TEST(WChecker, SkipsUnitaryForLargeRegisters) {
  CnfFormula F = sat::satlibInstance(20, 1);
  WeaverOptions Opt;
  auto R = compileWeaver(F, Opt);
  ASSERT_TRUE(R.ok()) << R.message();
  qaoa::QaoaParams P;
  circuit::Circuit Reference = qaoa::buildQaoaCircuit(F, P);
  CheckReport Report = checkWqasm(R->Program, Opt.Hw, &Reference);
  EXPECT_TRUE(Report.StructuralOk) << Report.Diagnostic;
  EXPECT_FALSE(Report.UnitaryChecked);
}

TEST(WChecker, ReconstructedCircuitMatchesReference) {
  CnfFormula F = paperExample();
  WeaverOptions Opt;
  Opt.RunChecker = true;
  auto R = compileWeaver(F, Opt);
  ASSERT_TRUE(R.ok());
  ASSERT_TRUE(R->Check->passed());
  const circuit::Circuit &Rec = R->Check->Reconstructed;
  EXPECT_EQ(Rec.numQubits(), 6);
  EXPECT_EQ(Rec.count(circuit::GateKind::CCZ), 6u);
  // The reconstruction contains only U3/CZ/CCZ.
  for (const circuit::Gate &G : Rec) {
    auto K = G.kind();
    EXPECT_TRUE(K == circuit::GateKind::U3 || K == circuit::GateKind::CZ ||
                K == circuit::GateKind::CCZ)
        << G.str();
  }
}
