//===- tests/sat_test.cpp - SAT library unit + property tests -------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "sat/Cnf.h"
#include "sat/Dimacs.h"
#include "sat/Evaluator.h"
#include "sat/Generator.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

using namespace weaver;
using namespace weaver::sat;

TEST(Literal, DimacsConvention) {
  Literal L(-3);
  EXPECT_EQ(L.variable(), 3);
  EXPECT_TRUE(L.isNegated());
  EXPECT_EQ(L.dimacs(), -3);
  EXPECT_EQ(L.negated().dimacs(), 3);
}

TEST(Literal, Evaluate) {
  EXPECT_TRUE(Literal(2).evaluate(true));
  EXPECT_FALSE(Literal(2).evaluate(false));
  EXPECT_TRUE(Literal(-2).evaluate(false));
  EXPECT_FALSE(Literal(-2).evaluate(true));
}

TEST(Clause, MentionsAndSharing) {
  Clause A{1, -2, 3}, B{-3, 4, 5}, C{6, 7, 8};
  EXPECT_TRUE(A.mentions(2));
  EXPECT_FALSE(A.mentions(4));
  EXPECT_TRUE(A.sharesVariableWith(B)); // variable 3
  EXPECT_FALSE(A.sharesVariableWith(C));
}

TEST(Clause, EvaluateDisjunction) {
  Clause C{1, -2, 3};
  // Satisfied unless x1=0, x2=1, x3=0.
  EXPECT_FALSE(C.evaluate({false, true, false}));
  EXPECT_TRUE(C.evaluate({true, true, false}));
  EXPECT_TRUE(C.evaluate({false, false, false}));
  EXPECT_TRUE(C.evaluate({false, true, true}));
}

TEST(CnfFormula, AddClauseGrowsVariableCount) {
  CnfFormula F;
  F.addClause(Clause{1, -5, 2});
  EXPECT_EQ(F.numVariables(), 5);
  EXPECT_EQ(F.numClauses(), 1u);
}

TEST(CnfFormula, CountSatisfied) {
  CnfFormula F(3, {Clause{1, 2, 3}, Clause{-1, -2, -3}, Clause{1, -2, 3}});
  EXPECT_EQ(F.countSatisfied({true, true, true}), 2u);
  EXPECT_EQ(F.countSatisfied({false, false, false}), 2u);
}

TEST(CnfFormula, IsExactlyKSat) {
  CnfFormula F(3, {Clause{1, 2, 3}});
  EXPECT_TRUE(F.isExactlyKSat(3));
  F.addClause(Clause{1, 2});
  EXPECT_FALSE(F.isExactlyKSat(3));
}

// --- DIMACS -------------------------------------------------------------

TEST(Dimacs, ParsesWellFormedInput) {
  auto F = parseDimacs("c comment\np cnf 3 2\n1 -2 3 0\n-1 2 -3 0\n");
  ASSERT_TRUE(F.ok()) << F.message();
  EXPECT_EQ(F->numVariables(), 3);
  EXPECT_EQ(F->numClauses(), 2u);
  EXPECT_EQ((*F).clause(0)[1].dimacs(), -2);
}

TEST(Dimacs, ParsesClausesSpanningLines) {
  auto F = parseDimacs("p cnf 3 1\n1\n-2\n3 0\n");
  ASSERT_TRUE(F.ok()) << F.message();
  EXPECT_EQ(F->clause(0).size(), 3u);
}

TEST(Dimacs, ToleratesSatlibTrailer) {
  auto F = parseDimacs("p cnf 2 1\n1 2 0\n%\n0\n");
  ASSERT_TRUE(F.ok()) << F.message();
  EXPECT_EQ(F->numClauses(), 1u);
}

TEST(Dimacs, RejectsMissingHeader) {
  EXPECT_FALSE(parseDimacs("1 2 0\n").ok());
}

TEST(Dimacs, RejectsMalformedHeader) {
  EXPECT_FALSE(parseDimacs("p cnf x y\n").ok());
  EXPECT_FALSE(parseDimacs("p dnf 2 1\n1 0\n").ok());
}

TEST(Dimacs, RejectsOutOfRangeLiteral) {
  EXPECT_FALSE(parseDimacs("p cnf 2 1\n1 5 0\n").ok());
  // INT_MIN has no positive counterpart in int.
  EXPECT_FALSE(parseDimacs("p cnf 3 1\n-2147483648 0\n").ok());
}

TEST(Dimacs, RejectsUnterminatedClause) {
  EXPECT_FALSE(parseDimacs("p cnf 2 1\n1 2\n").ok());
}

TEST(Dimacs, RejectsClauseCountMismatch) {
  EXPECT_FALSE(parseDimacs("p cnf 2 2\n1 2 0\n").ok());
}

TEST(Dimacs, PrintParseRoundTrip) {
  CnfFormula F = satlibInstance(20, 1);
  auto Again = parseDimacs(printDimacs(F));
  ASSERT_TRUE(Again.ok()) << Again.message();
  ASSERT_EQ(Again->numClauses(), F.numClauses());
  for (size_t I = 0; I < F.numClauses(); ++I)
    for (size_t J = 0; J < F.clause(I).size(); ++J)
      EXPECT_EQ(Again->clause(I)[J].dimacs(), F.clause(I)[J].dimacs());
}

// --- Generator ----------------------------------------------------------

class GeneratorProperty : public ::testing::TestWithParam<int> {};

TEST_P(GeneratorProperty, InstancesAreWellFormed3Sat) {
  int N = GetParam();
  for (int Index = 1; Index <= 10; ++Index) {
    CnfFormula F = satlibInstance(N, Index);
    EXPECT_EQ(F.numVariables(), N);
    EXPECT_TRUE(F.isExactlyKSat(3));
    size_t ExpectedClauses =
        N == 20 ? 91
                : static_cast<size_t>(std::lround(N * SatlibClauseRatio));
    EXPECT_EQ(F.numClauses(), ExpectedClauses);
    // Distinct variables within each clause; no duplicate clauses.
    std::set<std::vector<int>> Keys;
    for (const Clause &C : F.clauses()) {
      std::set<int> Vars;
      std::vector<int> Key;
      for (Literal L : C) {
        Vars.insert(L.variable());
        EXPECT_GE(L.variable(), 1);
        EXPECT_LE(L.variable(), N);
        Key.push_back(L.dimacs());
      }
      EXPECT_EQ(Vars.size(), 3u);
      std::sort(Key.begin(), Key.end());
      EXPECT_TRUE(Keys.insert(Key).second) << "duplicate clause";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SatlibSizes, GeneratorProperty,
                         ::testing::Values(20, 50, 75, 100, 150, 250));

TEST(Generator, DeterministicAcrossCalls) {
  CnfFormula A = satlibInstance(50, 3), B = satlibInstance(50, 3);
  ASSERT_EQ(A.numClauses(), B.numClauses());
  for (size_t I = 0; I < A.numClauses(); ++I)
    for (size_t J = 0; J < 3; ++J)
      EXPECT_EQ(A.clause(I)[J].dimacs(), B.clause(I)[J].dimacs());
}

TEST(Generator, DifferentIndicesDiffer) {
  CnfFormula A = satlibInstance(20, 1), B = satlibInstance(20, 2);
  bool AnyDiff = false;
  for (size_t I = 0; I < A.numClauses() && !AnyDiff; ++I)
    for (size_t J = 0; J < 3; ++J)
      AnyDiff |= A.clause(I)[J].dimacs() != B.clause(I)[J].dimacs();
  EXPECT_TRUE(AnyDiff);
}

TEST(Generator, SuiteHasTenInstances) {
  EXPECT_EQ(satlibSuite(20).size(), 10u);
  EXPECT_EQ(satlibSuite(20)[0].name(), "uf20-01");
  EXPECT_EQ(satlibSuite(20)[9].name(), "uf20-10");
}

TEST(Generator, CustomWidthK2) {
  CnfFormula F = RandomSatGenerator(5).generate(10, 30, 2);
  EXPECT_TRUE(F.isExactlyKSat(2));
  EXPECT_EQ(F.numClauses(), 30u);
}

// --- Evaluator ----------------------------------------------------------

TEST(Evaluator, AssignmentFromBits) {
  auto A = assignmentFromBits(0b101, 3);
  EXPECT_TRUE(A[0]);
  EXPECT_FALSE(A[1]);
  EXPECT_TRUE(A[2]);
}

TEST(Evaluator, BruteForceFindsSatisfyingAssignment) {
  // (x1) and (!x1 or x2): optimum 2 with x1=1, x2=1.
  CnfFormula F(2, {Clause{1}, Clause{-1, 2}});
  MaxSatOptimum Opt = bruteForceMaxSat(F);
  EXPECT_EQ(Opt.BestSatisfied, 2u);
  EXPECT_TRUE(Opt.BestAssignment[0]);
  EXPECT_TRUE(Opt.BestAssignment[1]);
}

TEST(Evaluator, BruteForceOnUnsatisfiableCore) {
  // x1 and !x1: optimum 1.
  CnfFormula F(1, {Clause{1}, Clause{-1}});
  EXPECT_EQ(bruteForceMaxSat(F).BestSatisfied, 1u);
}

TEST(Evaluator, RandomSmallInstanceOptimumBounds) {
  CnfFormula F = RandomSatGenerator(99).generate(8, 30);
  MaxSatOptimum Opt = bruteForceMaxSat(F);
  EXPECT_LE(Opt.BestSatisfied, F.numClauses());
  // Any assignment satisfies >= 7/8 of random 3-clauses in expectation;
  // the optimum certainly satisfies more than half.
  EXPECT_GT(Opt.BestSatisfied, F.numClauses() / 2);
  EXPECT_EQ(F.countSatisfied(Opt.BestAssignment), Opt.BestSatisfied);
}
