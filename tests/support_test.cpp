//===- tests/support_test.cpp - support library unit tests ----------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "support/FaultInjection.h"
#include "support/Geometry.h"
#include "support/Rng.h"
#include "support/Status.h"
#include "support/StringUtils.h"
#include "support/Table.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <vector>

using namespace weaver;

TEST(Status, DefaultIsSuccess) {
  Status S;
  EXPECT_TRUE(S.ok());
  EXPECT_FALSE(static_cast<bool>(S));
  EXPECT_TRUE(S.message().empty());
}

TEST(Status, ErrorCarriesMessage) {
  Status S = Status::error("file not found");
  EXPECT_FALSE(S.ok());
  EXPECT_TRUE(static_cast<bool>(S));
  EXPECT_EQ(S.message(), "file not found");
}

TEST(Status, SuccessNamedConstructor) {
  EXPECT_TRUE(Status::success().ok());
}

TEST(Expected, HoldsValue) {
  Expected<int> E(42);
  ASSERT_TRUE(E.ok());
  EXPECT_EQ(*E, 42);
}

TEST(Expected, HoldsError) {
  Expected<int> E = Expected<int>::error("bad input");
  ASSERT_FALSE(E.ok());
  EXPECT_EQ(E.message(), "bad input");
}

TEST(Expected, TakeMovesValue) {
  Expected<std::string> E(std::string("payload"));
  std::string S = E.take();
  EXPECT_EQ(S, "payload");
}

TEST(Expected, ArrowOperator) {
  Expected<std::string> E(std::string("abc"));
  EXPECT_EQ(E->size(), 3u);
}

TEST(StringUtils, TrimRemovesWhitespace) {
  EXPECT_EQ(trim("  a b  "), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t\n "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StringUtils, SplitDropsEmptyByDefault) {
  auto Pieces = split("a,,b,c", ',');
  ASSERT_EQ(Pieces.size(), 3u);
  EXPECT_EQ(Pieces[0], "a");
  EXPECT_EQ(Pieces[2], "c");
}

TEST(StringUtils, SplitKeepsEmptyWhenAsked) {
  auto Pieces = split("a,,b", ',', /*KeepEmpty=*/true);
  ASSERT_EQ(Pieces.size(), 3u);
  EXPECT_EQ(Pieces[1], "");
}

TEST(StringUtils, StartsWith) {
  EXPECT_TRUE(startsWith("OPENQASM 3.0", "OPENQASM"));
  EXPECT_FALSE(startsWith("OPEN", "OPENQASM"));
}

TEST(StringUtils, FormatDoubleRoundTrips) {
  double Values[] = {0.0, 1.5, -3.14159265358979, 1e-18, 2.5e17};
  for (double V : Values)
    EXPECT_EQ(std::stod(formatDouble(V)), V) << formatDouble(V);
}

namespace {
/// The formatting contract every emitter relies on (and every golden was
/// written with): printf's %.17g.
std::string printfG17(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}
} // namespace

TEST(StringUtils, AppendDoubleMatchesPrintfG17OnEdgeValues) {
  std::vector<double> Values = {0.0,  5e-324, DBL_MIN, DBL_MAX, 1e-4,
                                1e-5, 1e16,   1e17,    0.1,     1.0 / 3,
                                7.5,  0.3,    -29.100000000003547};
  for (size_t I = 0, E = Values.size(); I < E; ++I)
    Values.push_back(-Values[I]);
  // pi / 2^k: the angle family QAOA templates patch by exact scaling.
  for (int K = 0; K <= 12; ++K)
    Values.push_back(std::ldexp(M_PI, -K));
  for (double V : Values) {
    std::string Out = "@";
    appendDouble(Out, V);
    EXPECT_EQ(Out, "@" + printfG17(V)) << "appendDouble must append";
    EXPECT_EQ(formatDouble(V), printfG17(V));
  }
}

TEST(StringUtils, AppendDoubleMatchesPrintfG17OnRandomDoubles) {
  // Uniform bit patterns cover every exponent; uniform values in a
  // micrometer-scale range cover the fixed-notation branch that lattice
  // coordinates and angles take.
  Xoshiro256 Rng(20251017);
  for (int I = 0; I < 100000; ++I) {
    uint64_t Bits = Rng.next();
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    if (!std::isfinite(V))
      continue;
    std::string Out;
    appendDouble(Out, V);
    ASSERT_EQ(Out, printfG17(V)) << "bit pattern " << Bits;
  }
  for (int I = 0; I < 100000; ++I) {
    double V = (Rng.nextDouble() - 0.5) * 2000.0;
    ASSERT_EQ(formatDouble(V), printfG17(V));
  }
}

TEST(StringUtils, ParseFiniteDoubleAcceptsOnlyPlainDecimals) {
  struct Case {
    const char *Tok;
    bool Accepted;
    double Value;
  };
  const Case Cases[] = {
      {"0", true, 0.0},
      {"007", true, 7.0},
      {"123456789012345", true, 123456789012345.0},
      {"12345678901234567", true, 12345678901234567.0},
      {"-1", true, -1.0},
      {"1.5", true, 1.5},
      {".25", true, 0.25},
      {"1.", true, 1.0},
      {"2e-3", true, 2e-3},
      {"6.02E+23", true, 6.02e23},
      {"72.900000000000006", true, 72.900000000000006},
      {"-29.100000000003547", true, -29.100000000003547},
      {"1.7976931348623157e308", true, DBL_MAX},
      {"4.9406564584124654e-324", true, 5e-324},
      // Underflow: from_chars reports it as out of range, but it rounds
      // to a representable zero and stays accepted.
      {"1e-400", true, 0.0},
      {"2e-324", true, 0.0},
      {"-1e-400", true, -0.0},
      {"1e400", false, 0},
      {"-1e400", false, 0},
      {"9e999999999999999999", false, 0},
      {"inf", false, 0},
      {"-infinity", false, 0},
      {"nan", false, 0},
      {"NaN(1)", false, 0},
      {"", false, 0},
      {"-", false, 0},
      {".", false, 0},
      {"1e", false, 0},
      {"1e+", false, 0},
      {"1.2.3", false, 0},
      {"3..14", false, 0},
      {"1.5e1e1", false, 0},
      {"12abc", false, 0},
      // strtod accepted a leading '+', leading whitespace and hex
      // floats; they are rejections now, as they are for parseBoundedInt.
      {"+1", false, 0},
      {" 1", false, 0},
      {"\t2.5", false, 0},
      {"0x1p3", false, 0},
      {"1 ", false, 0},
  };
  for (const Case &C : Cases) {
    Expected<double> V = parseFiniteDouble(C.Tok);
    ASSERT_EQ(V.ok(), C.Accepted) << "'" << C.Tok << "'";
    if (C.Accepted) {
      EXPECT_EQ(*V, C.Value) << C.Tok;
      EXPECT_EQ(std::signbit(*V), std::signbit(C.Value)) << C.Tok;
    }
  }
  EXPECT_FALSE(parseFiniteDouble(std::string_view("1\0", 2)).ok());
  // 64 bytes is the cap: a longer token is rejected unread.
  std::string Long = "0." + std::string(62, '1');
  EXPECT_TRUE(parseFiniteDouble(Long).ok());
  EXPECT_FALSE(parseFiniteDouble(Long + "1").ok());
}

TEST(StringUtils, ParseFiniteDoubleMatchesStrtodBitForBit) {
  // %.17g renderings of uniform bit patterns cover every exponent,
  // denormals included.
  Xoshiro256 Rng(20261017);
  int Checked = 0;
  for (int I = 0; I < 200000; ++I) {
    uint64_t Bits = Rng.next();
    double V;
    std::memcpy(&V, &Bits, sizeof(V));
    if (!std::isfinite(V))
      continue;
    std::string Text = printfG17(V);
    Expected<double> Parsed = parseFiniteDouble(Text);
    ASSERT_TRUE(Parsed.ok()) << Text;
    double Reference = std::strtod(Text.c_str(), nullptr);
    ASSERT_EQ(std::memcmp(&*Parsed, &Reference, sizeof(double)), 0) << Text;
    ++Checked;
  }
  EXPECT_GT(Checked, 190000);
}

TEST(StringUtils, ScanNumeralTakesTheWholeNumberShapedRun) {
  EXPECT_EQ(scanNumeral("12;"), 2u);
  EXPECT_EQ(scanNumeral(".5]"), 2u);
  EXPECT_EQ(scanNumeral("2e-3,"), 4u);
  EXPECT_EQ(scanNumeral("1E+9 "), 4u);
  // Malformed shapes are taken whole so the caller rejects them whole.
  EXPECT_EQ(scanNumeral("1.2.3)"), 5u);
  EXPECT_EQ(scanNumeral("2e--3"), 3u);
  EXPECT_EQ(scanNumeral("1-2"), 1u); // a sign only follows an exponent
  EXPECT_EQ(scanNumeral(""), 0u);
  EXPECT_EQ(scanNumeral("."), 0u);
  EXPECT_EQ(scanNumeral(".x"), 0u);
  EXPECT_EQ(scanNumeral("-1"), 0u);
  EXPECT_EQ(scanNumeral("e5"), 0u);
}

TEST(StringUtils, MicronsRenderAndParseExactly) {
  // Lengths are whole nanometres written as micrometres: an exact decimal
  // with at most three fractional digits and no trailing zeros.
  const std::pair<int32_t, const char *> Table[] = {
      {14400, "14.4"},        {-900, "-0.9"},          {19732, "19.732"},
      {6000, "6"},            {0, "0"},                {-1, "-0.001"},
      {1000000000, "1000000"}, {-1000000000, "-1000000"}};
  for (const auto &[Nm, Text] : Table) {
    std::string Out;
    appendMicrons(Out, Nm);
    EXPECT_EQ(Out, Text);
    Expected<int32_t> Back = parseMicrons(Text);
    ASSERT_TRUE(Back.ok()) << Text << ": " << Back.message();
    EXPECT_EQ(*Back, Nm) << Text;
  }
  // Other spellings of lattice values are accepted too.
  EXPECT_EQ(*parseMicrons("2.50"), 2500);
  EXPECT_EQ(*parseMicrons("007.5"), 7500);
  EXPECT_EQ(*parseMicrons("-0"), 0);
  // Off the lattice, exponents, out of range, or not a plain numeral.
  for (const char *Bad :
       {"0.0005", "1e3", "1.7320508075688772", "1000000.001", "-1000000.001",
        "2147483.648", "99999999999999999999", "+1", ".", "-", "", ".5", "5.",
        "1.2.3", "--1", "0x10", " 1", "1 ", "nan", "inf"}) {
    EXPECT_FALSE(parseMicrons(Bad).ok()) << Bad;
  }
}

TEST(StringUtils, MicronsRoundTripSeededNanometres) {
  // print -> parse is the identity over the whole coordinate range, with
  // small magnitudes (where the fractional digits matter) oversampled.
  Xoshiro256 Rng(20261017);
  for (int I = 0; I < 200000; ++I) {
    uint64_t Span = I % 2 ? 2ull * MaxCoordinateNm + 1 : 200001;
    int64_t Nm = static_cast<int64_t>(Rng.nextBelow(Span)) -
                 static_cast<int64_t>(Span / 2);
    std::string Out;
    appendMicrons(Out, Nm);
    Expected<int32_t> Back = parseMicrons(Out);
    ASSERT_TRUE(Back.ok()) << Out << ": " << Back.message();
    ASSERT_EQ(*Back, Nm) << Out;
  }
}

TEST(StringUtils, AppendAllRendersEachPartByType) {
  std::string Out = ">";
  appendAll(Out, " q[", 3, "] ", 0.5, ' ', -7, std::string(" end"));
  EXPECT_EQ(Out, "> q[3] 0.5 -7 end");
}

TEST(StringUtils, Formatf) {
  EXPECT_EQ(formatf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(formatf("%.2f", 1.005), "1.00");
}

TEST(Rng, SplitMix64IsDeterministic) {
  SplitMix64 A(123), B(123);
  for (int I = 0; I < 100; ++I)
    EXPECT_EQ(A.next(), B.next());
}

TEST(Rng, XoshiroIsDeterministicAndSeedSensitive) {
  Xoshiro256 A(1), B(1), C(2);
  bool Diverged = false;
  for (int I = 0; I < 64; ++I) {
    uint64_t VA = A.next();
    EXPECT_EQ(VA, B.next());
    if (VA != C.next())
      Diverged = true;
  }
  EXPECT_TRUE(Diverged);
}

TEST(Rng, NextBelowStaysInRange) {
  Xoshiro256 Rng(7);
  for (uint64_t Bound : {1ull, 2ull, 3ull, 10ull, 1000ull}) {
    for (int I = 0; I < 200; ++I)
      EXPECT_LT(Rng.nextBelow(Bound), Bound);
  }
}

TEST(Rng, NextBelowCoversAllValues) {
  Xoshiro256 Rng(11);
  std::set<uint64_t> Seen;
  for (int I = 0; I < 500; ++I)
    Seen.insert(Rng.nextBelow(5));
  EXPECT_EQ(Seen.size(), 5u);
}

TEST(Rng, NextDoubleInUnitInterval) {
  Xoshiro256 Rng(13);
  for (int I = 0; I < 1000; ++I) {
    double D = Rng.nextDouble();
    EXPECT_GE(D, 0.0);
    EXPECT_LT(D, 1.0);
  }
}

TEST(Geometry, DistanceIsEuclidean) {
  EXPECT_EQ(distanceSquared({0, 0}, {3, 4}), 25);
  EXPECT_EQ(distanceSquared({1, 1}, {1, 1}), 0);
  EXPECT_EQ(distanceSquared({-3, 2}, {1, -1}), 25);
  // Opposite corners of the coordinate range: the squared distance is
  // exact in 64 bits.
  const int32_t M = MaxCoordinateNm;
  EXPECT_EQ(distanceSquared({-M, -M}, {M, M}), 8000000000000000000LL);
}

TEST(Geometry, VectorArithmetic) {
  Vec2 A{1, 2}, B{3, 5};
  EXPECT_EQ((A + B), (Vec2{4, 7}));
  EXPECT_EQ((B - A), (Vec2{2, 3}));
}

TEST(Table, RendersAlignedColumns) {
  Table T({"name", "value"});
  T.addRow({"x", "1"});
  T.addRow({"longer", "22"});
  std::string Out = T.render();
  EXPECT_NE(Out.find("name    value"), std::string::npos);
  EXPECT_NE(Out.find("longer  22"), std::string::npos);
}

TEST(Table, PadsShortRows) {
  Table T({"a", "b", "c"});
  T.addRow({"1"});
  EXPECT_NE(T.render().find("1"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// FaultInjection: spec parsing, schedule semantics, determinism
//===----------------------------------------------------------------------===//

TEST(FaultInjection, EmptySpecIsDisabled) {
  auto C = fault::parseConfig("");
  ASSERT_TRUE(C.ok());
  EXPECT_FALSE(C->enabled());
  auto C2 = fault::parseConfig("   ");
  ASSERT_TRUE(C2.ok());
  EXPECT_FALSE(C2->enabled());
}

TEST(FaultInjection, ParsesSeedAndSiteClauses) {
  auto C = fault::parseConfig(
      "seed=42;binio.fsync:after=1,count=2;service.job.hang:p=0.25,"
      "delay_ms=500;net.*");
  ASSERT_TRUE(C.ok());
  EXPECT_EQ(C->Seed, 42u);
  ASSERT_EQ(C->Sites.size(), 3u);
  EXPECT_EQ(C->Sites[0].Pattern, "binio.fsync");
  EXPECT_EQ(C->Sites[0].After, 1u);
  EXPECT_EQ(C->Sites[0].Count, 2u);
  EXPECT_DOUBLE_EQ(C->Sites[1].Probability, 0.25);
  EXPECT_DOUBLE_EQ(C->Sites[1].DelayMs, 500);
  EXPECT_EQ(C->Sites[2].Pattern, "net.*");
}

TEST(FaultInjection, RejectsMalformedSpecs) {
  EXPECT_FALSE(fault::parseConfig("site:p=1.5").ok());       // p out of range
  EXPECT_FALSE(fault::parseConfig("site:p=-0.1").ok());      // p out of range
  EXPECT_FALSE(fault::parseConfig("site:bogus=1").ok());     // unknown key
  EXPECT_FALSE(fault::parseConfig("site:p=0.5,every=2").ok()); // exclusive
  EXPECT_FALSE(fault::parseConfig("seed=nope").ok());        // bad seed
  EXPECT_FALSE(fault::parseConfig("site:after=abc").ok());   // bad number
  EXPECT_FALSE(fault::parseConfig("UPPER.Case").ok());       // bad site name
  EXPECT_FALSE(fault::parseConfig("site:delay_ms=-5").ok()); // negative delay
}

TEST(FaultInjection, BareClauseFiresEveryCall) {
  fault::Engine E(fault::parseConfig("seed=1;always.on").take());
  for (int I = 0; I < 5; ++I)
    EXPECT_TRUE(E.decide("always.on").Fire);
  EXPECT_FALSE(E.decide("other.site").Fire);
}

TEST(FaultInjection, AfterCountEverySchedules) {
  // after=2,count=1: exactly the 3rd call fires.
  fault::Engine E(fault::parseConfig("seed=1;s:after=2,count=1").take());
  std::vector<bool> Fires;
  for (int I = 0; I < 6; ++I)
    Fires.push_back(E.decide("s").Fire);
  EXPECT_EQ(Fires, (std::vector<bool>{false, false, true, false, false,
                                      false}));

  // every=3: calls 3, 6, 9 fire.
  fault::Engine E2(fault::parseConfig("seed=1;s:every=3").take());
  int Fired = 0;
  for (int I = 1; I <= 9; ++I)
    if (E2.decide("s").Fire) {
      ++Fired;
      EXPECT_EQ(I % 3, 0);
    }
  EXPECT_EQ(Fired, 3);
}

TEST(FaultInjection, PrefixWildcardMatchesFamily) {
  fault::Engine E(fault::parseConfig("seed=1;binio.*").take());
  EXPECT_TRUE(E.decide("binio.fsync").Fire);
  EXPECT_TRUE(E.decide("binio.rename").Fire);
  EXPECT_FALSE(E.decide("persist.save.abort").Fire);
}

TEST(FaultInjection, FirstMatchingClauseWins) {
  fault::Engine E(
      fault::parseConfig("seed=1;binio.fsync:count=1;binio.*:every=2")
          .take());
  // binio.fsync binds the exact clause (fires once), not the wildcard.
  EXPECT_TRUE(E.decide("binio.fsync").Fire);
  EXPECT_FALSE(E.decide("binio.fsync").Fire);
}

TEST(FaultInjection, SameSeedSameSchedule) {
  const char *Spec = "seed=7;s:p=0.4";
  fault::Engine A(fault::parseConfig(Spec).take());
  fault::Engine B(fault::parseConfig(Spec).take());
  for (int I = 0; I < 64; ++I)
    EXPECT_EQ(A.decide("s").Fire, B.decide("s").Fire);
}

TEST(FaultInjection, SiteStreamsAreIndependent) {
  // Site "a"'s decision sequence must not depend on how often other
  // sites are consulted in between.
  fault::Engine Alone(fault::parseConfig("seed=9;a:p=0.5;b:p=0.5").take());
  std::vector<bool> Expected;
  for (int I = 0; I < 32; ++I)
    Expected.push_back(Alone.decide("a").Fire);

  fault::Engine Mixed(fault::parseConfig("seed=9;a:p=0.5;b:p=0.5").take());
  std::vector<bool> Got;
  for (int I = 0; I < 32; ++I) {
    Mixed.decide("b"); // interleaved traffic on another site
    Mixed.decide("b");
    Got.push_back(Mixed.decide("a").Fire);
  }
  EXPECT_EQ(Got, Expected);
}

TEST(FaultInjection, CountCapKeepsDrawsAligned) {
  // The probabilistic draw happens on every eligible call even once the
  // count cap is reached, so a capped schedule observes the same ordinals
  // firing as an uncapped one (just suppressed past the cap).
  fault::Engine Capped(fault::parseConfig("seed=5;s:p=0.5,count=2").take());
  fault::Engine Free(fault::parseConfig("seed=5;s:p=0.5").take());
  int Fired = 0;
  for (int I = 0; I < 64; ++I) {
    bool F = Free.decide("s").Fire;
    bool C = Capped.decide("s").Fire;
    if (Fired < 2)
      EXPECT_EQ(C, F);
    else
      EXPECT_FALSE(C);
    if (C)
      ++Fired;
  }
  EXPECT_EQ(Fired, 2);
}

TEST(FaultInjection, ClampLenStaysInRange) {
  fault::Engine E(fault::parseConfig("seed=3;s").take());
  for (int I = 0; I < 32; ++I) {
    size_t L = E.clampLen("s", 100, 10);
    EXPECT_GE(L, 10u);
    EXPECT_LT(L, 100u);
  }
  // Degenerate ranges pass through untouched.
  EXPECT_EQ(E.clampLen("s", 1, 1), 1u);
  EXPECT_EQ(E.clampLen("s", 0), 0u);
}

TEST(FaultInjection, CountersAreSortedAndAccurate) {
  fault::Engine E(fault::parseConfig("seed=1;b.site:count=1;a.site").take());
  E.decide("b.site");
  E.decide("b.site");
  E.decide("a.site");
  E.decide("unmatched.site");
  auto C = E.counters();
  ASSERT_EQ(C.size(), 3u);
  EXPECT_EQ(C[0].Site, "a.site");
  EXPECT_EQ(C[0].Calls, 1u);
  EXPECT_EQ(C[0].Fired, 1u);
  EXPECT_EQ(C[1].Site, "b.site");
  EXPECT_EQ(C[1].Calls, 2u);
  EXPECT_EQ(C[1].Fired, 1u);
  EXPECT_EQ(C[2].Site, "unmatched.site");
  EXPECT_EQ(C[2].Fired, 0u);
  EXPECT_EQ(E.totalFired(), 2u);
}

TEST(FaultInjection, DisabledEngineNeverFires) {
  fault::Engine E;
  EXPECT_FALSE(E.enabled());
  EXPECT_FALSE(E.decide("any.site").Fire);
  EXPECT_EQ(E.clampLen("any.site", 50), 50u);
}

TEST(FaultInjection, GlobalConfigureAndReset) {
  ASSERT_FALSE(fault::enabled());
  ASSERT_FALSE(fault::configureGlobal("seed=2;g.test.site"));
  EXPECT_TRUE(fault::enabled());
  EXPECT_TRUE(fault::fire("g.test.site"));
  EXPECT_FALSE(fault::fire("g.other.site"));
  fault::resetGlobal();
  EXPECT_FALSE(fault::enabled());
  EXPECT_FALSE(fault::fire("g.test.site"));
  // A malformed global spec is rejected without enabling anything.
  EXPECT_TRUE(fault::configureGlobal("bad spec here"));
  EXPECT_FALSE(fault::enabled());
}
