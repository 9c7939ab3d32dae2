//===- tests/pipeline_test.cpp - Pass pipeline unit + parity tests --------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Parity tests pin the pass-based code generator to the golden wQASM
/// programs captured from the pre-pipeline monolithic generator
/// (tests/data/golden_*.wqasm): the refactor must stay byte-identical.
/// The per-pass tests exercise each stage — and the ablation toggles —
/// through the PassManager directly.
///
//===----------------------------------------------------------------------===//

#include "core/WChecker.h"
#include "core/WeaverCompiler.h"
#include "core/pipeline/ClauseColoringPass.h"
#include "core/pipeline/GateLoweringPass.h"
#include "core/pipeline/PassManager.h"
#include "core/pipeline/PulseEmissionPass.h"
#include "core/pipeline/ShuttleSchedulingPass.h"
#include "core/pipeline/ZonePlanningPass.h"
#include "qasm/Parser.h"
#include "qasm/Printer.h"
#include "sat/Generator.h"
#include "support/BinaryIO.h"

#include <gtest/gtest.h>

#include <cstring>
#include <fstream>
#include <sstream>

using namespace weaver;
using namespace weaver::core;
using namespace weaver::core::pipeline;
using sat::Clause;
using sat::CnfFormula;

namespace {

CnfFormula paperExample() {
  return CnfFormula(6, {Clause{-1, -2, -3}, Clause{4, -5, 6},
                        Clause{3, 5, -6}});
}

CnfFormula goldenFormula(uint64_t Seed) {
  return sat::RandomSatGenerator(Seed).generate(12, 36);
}

std::string readGolden(const std::string &Name) {
  std::ifstream In(std::string(WEAVER_TEST_DATA_DIR) + "/" + Name);
  EXPECT_TRUE(In.good()) << "missing golden file " << Name;
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

/// Runs the full pipeline over \p Formula with \p Options applied.
Expected<WeaverResult> compileWith(const CnfFormula &Formula,
                                   const WeaverOptions &Options) {
  return compileWeaver(Formula, Options);
}

// --- Parity against the pre-refactor monolith ---------------------------

class GoldenParity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GoldenParity, CompressedOutputIsByteIdentical) {
  auto R = compileWith(goldenFormula(GetParam()), WeaverOptions());
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_EQ(qasm::printWqasm(R->Program),
            readGolden("golden_seed" + std::to_string(GetParam()) +
                       ".wqasm"));
}

TEST_P(GoldenParity, LadderOutputIsByteIdentical) {
  WeaverOptions Opt;
  Opt.Compression = WeaverOptions::CompressionMode::Off;
  auto R = compileWith(goldenFormula(GetParam()), Opt);
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_EQ(qasm::printWqasm(R->Program),
            readGolden("golden_seed" + std::to_string(GetParam()) +
                       "_ladder.wqasm"));
}

TEST_P(GoldenParity, NoReuseOutputIsByteIdentical) {
  WeaverOptions Opt;
  Opt.ReuseAodAtoms = false;
  auto R = compileWith(goldenFormula(GetParam()), Opt);
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_EQ(qasm::printWqasm(R->Program),
            readGolden("golden_seed" + std::to_string(GetParam()) +
                       "_noreuse.wqasm"));
}

TEST_P(GoldenParity, DirectCodegenMatchesGolden) {
  // A caller-supplied colouring (pre-filled colouring section, standard
  // pipeline) must produce the same bytes as the full pipeline and the
  // golden capture.
  CnfFormula F = goldenFormula(GetParam());
  CompilationContext Ctx;
  Ctx.Formula = &F;
  Ctx.Options.UseCompression = Ctx.Hw.cczCompressionProfitable();
  Ctx.Coloring = colorClausesDSatur(F);
  Ctx.HasColoring = true;
  Status S = PassManager::standardFpqaPipeline().run(Ctx);
  ASSERT_TRUE(S.ok()) << S.message();
  EXPECT_EQ(qasm::printWqasm(Ctx.Program),
            readGolden("golden_seed" + std::to_string(GetParam()) +
                       ".wqasm"));
}

INSTANTIATE_TEST_SUITE_P(Seeds, GoldenParity,
                         ::testing::Values(7, 21, 42));

/// The golden_mixed.wqasm formula: clause widths 1 to 3.
CnfFormula mixedFormula() {
  return CnfFormula(5, {Clause{1}, Clause{-2, 3}, Clause{-3, -4, -5},
                        Clause{2, 4}, Clause{-1, 4, 5}});
}

TEST(GoldenParity, MixedWidthsTwoLayersMeasured) {
  WeaverOptions Opt;
  Opt.Qaoa.Layers = 2;
  Opt.Measure = true;
  auto R = compileWith(mixedFormula(), Opt);
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_EQ(qasm::printWqasm(R->Program), readGolden("golden_mixed.wqasm"));
}

TEST(GoldenParity, PaperScaleUf250ByteIdentity) {
  // The goldens are 12-variable programs; this pins the printer at the
  // paper's largest size, lengths printed as exact micrometres. A 2.7 MB
  // text file would be churn, so only its length and FNV-1a hash are
  // committed.
  auto R = compileWith(sat::satlibInstance(250, 1), WeaverOptions());
  ASSERT_TRUE(R.ok()) << R.message();
  std::string Text = qasm::printWqasm(R->Program);
  EXPECT_EQ(Text.size(), 2683446u);
  EXPECT_EQ(fnv1a64(Text.data(), Text.size()), 0x4da38ff0fee2de2cULL);
  // print -> parse -> print is a fixed point at this size too.
  auto Back = qasm::parseWqasm(Text);
  ASSERT_TRUE(Back.ok()) << Back.message();
  EXPECT_TRUE(qasm::printWqasm(*Back) == Text);
}

TEST(GoldenParity, PaperScaleUf250LadderAndNoReuseByteIdentity) {
  // The same pin for the two other emission modes: the ladder (its single
  // @shuttle column lines are the bump cascades) and no-reuse (every
  // colour boundary unloads and reloads through home rounds).
  WeaverOptions Ladder;
  Ladder.Compression = WeaverOptions::CompressionMode::Off;
  WeaverOptions NoReuse;
  NoReuse.ReuseAodAtoms = false;
  const struct {
    const char *Mode;
    WeaverOptions Options;
    size_t Bytes;
    uint64_t Hash;
  } Pins[] = {{"ladder", Ladder, 4395207u, 0x29f429a92510fb30ULL},
              {"no-reuse", NoReuse, 2594850u, 0xc23cf488faf68d32ULL}};
  for (const auto &Pin : Pins) {
    auto R = compileWith(sat::satlibInstance(250, 1), Pin.Options);
    ASSERT_TRUE(R.ok()) << Pin.Mode << ": " << R.message();
    std::string Text = qasm::printWqasm(R->Program);
    EXPECT_EQ(Text.size(), Pin.Bytes) << Pin.Mode;
    EXPECT_EQ(fnv1a64(Text.data(), Text.size()), Pin.Hash) << Pin.Mode;
  }
}

// --- PassManager --------------------------------------------------------

TEST(PassManager, RecordsOneTimingPerPassInOrder) {
  CompilationContext Ctx;
  CnfFormula F = paperExample();
  Ctx.Formula = &F;
  ASSERT_TRUE(PassManager::standardFpqaPipeline().run(Ctx).ok());
  ASSERT_EQ(Ctx.Timings.size(), 5u);
  EXPECT_EQ(Ctx.Timings[0].PassName, "clause-coloring");
  EXPECT_EQ(Ctx.Timings[1].PassName, "zone-planning");
  EXPECT_EQ(Ctx.Timings[2].PassName, "shuttle-scheduling");
  EXPECT_EQ(Ctx.Timings[3].PassName, "gate-lowering");
  EXPECT_EQ(Ctx.Timings[4].PassName, "pulse-emission");
  for (const PassTiming &T : Ctx.Timings)
    EXPECT_GE(T.Seconds, 0.0);
}

TEST(PassManager, FailureNamesTheFailingPass) {
  CompilationContext Ctx;
  CnfFormula F(4, {Clause{1, 2, 3, 4}}); // too wide for the zone planner
  Ctx.Formula = &F;
  Status S = PassManager::standardFpqaPipeline().run(Ctx);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.message().find("zone-planning"), std::string::npos)
      << S.message();
  // The manager still recorded the failing pass's timing.
  EXPECT_EQ(Ctx.Timings.back().PassName, "zone-planning");
}

// --- ClauseColoringPass -------------------------------------------------

TEST(ClauseColoringPass, ColoursWithSelectedHeuristic) {
  CnfFormula F = sat::RandomSatGenerator(5).generate(10, 40);
  CompilationContext DSatur, FirstFit;
  DSatur.Formula = FirstFit.Formula = &F;
  FirstFit.UseDSatur = false;
  ClauseColoringPass Pass;
  ASSERT_TRUE(Pass.run(DSatur).ok());
  ASSERT_TRUE(Pass.run(FirstFit).ok());
  EXPECT_TRUE(DSatur.Coloring.isValid(F));
  EXPECT_TRUE(FirstFit.Coloring.isValid(F));
  EXPECT_TRUE(DSatur.HasColoring);
}

TEST(ClauseColoringPass, RejectsInvalidSuppliedColoring) {
  CnfFormula F = paperExample();
  CompilationContext Ctx;
  Ctx.Formula = &F;
  // All three clauses in one colour although clause 2 conflicts.
  Ctx.Coloring.ColorOf = {0, 0, 0};
  Ctx.Coloring.ClausesByColor = {{0, 1, 2}};
  Ctx.HasColoring = true;
  ClauseColoringPass Pass;
  EXPECT_FALSE(Pass.run(Ctx).ok());
}

// --- ZonePlanningPass ---------------------------------------------------

TEST(ZonePlanningPass, PlansSitesTrapsAndColumns) {
  CnfFormula F = paperExample();
  CompilationContext Ctx;
  Ctx.Formula = &F;
  ASSERT_TRUE(ClauseColoringPass().run(Ctx).ok());
  ASSERT_TRUE(ZonePlanningPass().run(Ctx).ok());
  ASSERT_EQ(Ctx.Plans.size(), static_cast<size_t>(Ctx.Coloring.numColors()));
  // One home trap per variable plus one shared zone trap per 3-clause site.
  EXPECT_GE(Ctx.SlmTraps.size(), static_cast<size_t>(F.numVariables()));
  size_t Sites = 0, Slots = 0;
  for (const ColorPlan &Plan : Ctx.Plans) {
    for (const ClausePlan &CP : Plan.Clauses) {
      EXPECT_GE(CP.Width, 1);
      EXPECT_LE(CP.Width, 3);
      if (CP.Width == 3) {
        ++Sites;
        // Zone target traps live after the home traps.
        EXPECT_GE(CP.TargetTrap, F.numVariables());
      }
    }
    Slots = std::max(Slots, Plan.Slots.size());
  }
  EXPECT_EQ(Sites, F.numClauses()); // paper example is all 3-literal
  EXPECT_EQ(Ctx.NumColumns, static_cast<int>(Slots));
}

TEST(ZonePlanningPass, RejectsWideClauses) {
  CnfFormula F(4, {Clause{1, 2, 3, 4}});
  CompilationContext Ctx;
  Ctx.Formula = &F;
  ASSERT_TRUE(ClauseColoringPass().run(Ctx).ok());
  EXPECT_FALSE(ZonePlanningPass().run(Ctx).ok());
}

TEST(ZonePlanningPass, RejectsFormulasWiderThanTheCoordinateBound) {
  // The default layout spends at most 28.9 um of x per variable plus
  // 11 um, so 34601 variables fit the +-1e6 um plane and 34602 do not.
  // A DIMACS header may declare up to a million; positions must never be
  // computed past the bound, where int32_t arithmetic would overflow.
  for (int Vars : {34601, 34602, 1000000}) {
    CnfFormula F(Vars, {Clause{1, -2, Vars}});
    CompilationContext Ctx;
    Ctx.Formula = &F;
    ASSERT_TRUE(ClauseColoringPass().run(Ctx).ok());
    Status S = ZonePlanningPass().run(Ctx);
    if (Vars == 34601) {
      ASSERT_TRUE(S.ok()) << S.message();
      EXPECT_EQ(Ctx.SlmTraps[Vars - 1].X, 6000 * (Vars - 1));
      continue;
    }
    ASSERT_FALSE(S.ok());
    EXPECT_NE(S.message().find("do not fit"), std::string::npos)
        << S.message();
  }
}

// --- ShuttleSchedulingPass ----------------------------------------------

/// Runs colouring + planning + scheduling and returns the context.
CompilationContext scheduleFor(const CnfFormula &F, bool Reuse,
                               int Layers = 1) {
  CompilationContext Ctx;
  Ctx.Formula = &F;
  Ctx.Options.ReuseAodAtoms = Reuse;
  Ctx.Options.Qaoa.Layers = Layers;
  EXPECT_TRUE(ClauseColoringPass().run(Ctx).ok());
  EXPECT_TRUE(ZonePlanningPass().run(Ctx).ok());
  EXPECT_TRUE(ShuttleSchedulingPass().run(Ctx).ok());
  return Ctx;
}

size_t totalLoads(const CompilationContext &Ctx) {
  size_t N = 0;
  for (const BoundarySchedule &B : Ctx.Boundaries)
    N += B.ToLoad.size();
  return N;
}

TEST(ShuttleSchedulingPass, CoversTheExecutionOrder) {
  CnfFormula F = sat::RandomSatGenerator(9).generate(10, 30);
  CompilationContext Ctx = scheduleFor(F, /*Reuse=*/true, /*Layers=*/2);
  EXPECT_EQ(Ctx.Boundaries.size(),
            static_cast<size_t>(2 * Ctx.Coloring.numColors()));
  for (const BoundarySchedule &B : Ctx.Boundaries) {
    if (B.Empty)
      continue;
    // Every slot got a distinct in-range column, and targets cover all
    // columns.
    std::vector<bool> Used(Ctx.NumColumns, false);
    for (int C : B.SlotColumn) {
      ASSERT_GE(C, 0);
      ASSERT_LT(C, Ctx.NumColumns);
      EXPECT_FALSE(Used[C]) << "column assigned twice";
      Used[C] = true;
    }
    EXPECT_EQ(B.ColumnTargets.size(), static_cast<size_t>(Ctx.NumColumns));
  }
}

TEST(ShuttleSchedulingPass, NoReuseLoadsEverySlotEveryBoundary) {
  CnfFormula F = sat::RandomSatGenerator(9).generate(10, 30);
  CompilationContext Ctx = scheduleFor(F, /*Reuse=*/false, /*Layers=*/2);
  size_t BoundaryIdx = 0;
  for (int Layer = 0; Layer < 2; ++Layer)
    for (int Color = 0; Color < Ctx.Coloring.numColors(); ++Color) {
      const BoundarySchedule &B = Ctx.Boundaries[BoundaryIdx++];
      if (B.Empty)
        continue;
      EXPECT_EQ(B.ToLoad.size(), Ctx.Plans[Color].Slots.size());
    }
}

TEST(ShuttleSchedulingPass, ReuseNeverLoadsMoreThanNoReuse) {
  for (uint64_t Seed : {3u, 11u, 29u}) {
    CnfFormula F = sat::RandomSatGenerator(Seed).generate(12, 40);
    size_t Reused = totalLoads(scheduleFor(F, true, 2));
    size_t Fresh = totalLoads(scheduleFor(F, false, 2));
    EXPECT_LE(Reused, Fresh) << "seed " << Seed;
    EXPECT_LT(Reused, Fresh)
        << "reuse saved nothing across 2 layers, seed " << Seed;
  }
}

// --- GateLoweringPass ---------------------------------------------------

TEST(GateLoweringPass, RequiresSchedules) {
  CnfFormula F = paperExample();
  CompilationContext Ctx;
  Ctx.Formula = &F;
  ASSERT_TRUE(ClauseColoringPass().run(Ctx).ok());
  ASSERT_TRUE(ZonePlanningPass().run(Ctx).ok());
  EXPECT_FALSE(GateLoweringPass().run(Ctx).ok());
}

TEST(GateLoweringPass, CompressionToggleThroughPassManager) {
  CnfFormula F = paperExample();
  for (bool Compress : {true, false}) {
    CompilationContext Ctx;
    Ctx.Formula = &F;
    Ctx.Options.UseCompression = Compress;
    ASSERT_TRUE(PassManager::standardFpqaPipeline().run(Ctx).ok());
    size_t Cczs = 0;
    for (const auto &S : Ctx.Program.Statements)
      Cczs += S.Gate.kind() == circuit::GateKind::CCZ;
    if (Compress)
      EXPECT_EQ(Cczs, 6u); // 3 clauses x 2 CCZ (Fig. 7)
    else
      EXPECT_EQ(Cczs, 0u);
    // Both lowerings produce structurally valid programs.
    CheckReport Report = checkWqasm(Ctx.Program, Ctx.Hw);
    EXPECT_TRUE(Report.StructuralOk) << Report.Diagnostic;
  }
}

TEST(GateLoweringPass, ReuseToggleThroughPassManager) {
  CnfFormula F = sat::RandomSatGenerator(13).generate(10, 30);
  size_t Transfers[2] = {0, 0};
  for (int Reuse = 0; Reuse < 2; ++Reuse) {
    CompilationContext Ctx;
    Ctx.Formula = &F;
    Ctx.Options.ReuseAodAtoms = Reuse == 1;
    ASSERT_TRUE(PassManager::standardFpqaPipeline().run(Ctx).ok());
    Transfers[Reuse] = Ctx.Stats.TransferInstructions;
    CheckReport Report = checkWqasm(Ctx.Program, Ctx.Hw);
    EXPECT_TRUE(Report.StructuralOk) << Report.Diagnostic;
  }
  EXPECT_LT(Transfers[1], Transfers[0])
      << "colour shuttling reuse should save transfer pulses";
}

// --- PulseEmissionPass --------------------------------------------------

TEST(PulseEmissionPass, PublishesLoweringStatsWithoutReplay) {
  CnfFormula F = paperExample();
  CompilationContext Ctx;
  Ctx.Formula = &F;
  ASSERT_TRUE(PassManager::standardFpqaPipeline().run(Ctx).ok());
  EXPECT_TRUE(Ctx.HasStats);
  EXPECT_GT(Ctx.Stats.totalPulses(), 0u);
  EXPECT_GT(Ctx.Stats.RydbergPulses, 0u);
  EXPECT_GT(Ctx.Stats.Duration, 0.0);
  EXPECT_GT(Ctx.Stats.Eps, 0.0);
  // Without gate lowering's statistics the pass refuses to run: it no
  // longer walks the pulse stream itself.
  CompilationContext Bare;
  Bare.Formula = &F;
  Bare.Program = Ctx.Program;
  Status S = PulseEmissionPass().run(Bare);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.message().find("run GateLoweringPass first"), std::string::npos)
      << S.message();
}

/// Bit pattern of a double, so Duration and Eps compare bit for bit.
uint64_t bitsOf(double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  return Bits;
}

TEST(GateLoweringPass, StatsEqualReplayBitForBit) {
  // Lowering accumulates the statistics while it emits. They must equal a
  // separate replay of the finished program field by field: same
  // annotations, same order, same fresh device.
  struct Config {
    CnfFormula F;
    bool Compress, Reuse;
    int Layers = 1;
    bool Measure = false;
  };
  std::vector<Config> Configs;
  for (uint64_t Seed : {7, 21, 42}) {
    Configs.push_back({goldenFormula(Seed), true, true});
    Configs.push_back({goldenFormula(Seed), false, true});
    Configs.push_back({goldenFormula(Seed), true, false});
  }
  Configs.push_back({mixedFormula(), true, true, 2, true});
  for (int I = 1; I <= 3; ++I)
    for (bool Compress : {true, false})
      Configs.push_back({sat::satlibInstance(250, I), Compress, true});
  for (const Config &C : Configs) {
    CompilationContext Ctx;
    Ctx.Formula = &C.F;
    Ctx.Options.UseCompression = C.Compress;
    Ctx.Options.ReuseAodAtoms = C.Reuse;
    Ctx.Options.Qaoa.Layers = C.Layers;
    Ctx.Options.Measure = C.Measure;
    ASSERT_TRUE(PassManager::standardFpqaPipeline().run(Ctx).ok());
    auto Replayed = fpqa::analyzePulseProgram(Ctx.Program, Ctx.Hw);
    ASSERT_TRUE(Replayed.ok()) << Replayed.message();
    const fpqa::PulseStats &A = Ctx.Stats, &B = *Replayed;
    SCOPED_TRACE(std::to_string(C.F.numVariables()) + " vars, compress " +
                 std::to_string(C.Compress) + ", reuse " +
                 std::to_string(C.Reuse));
    EXPECT_EQ(A.RamanLocalPulses, B.RamanLocalPulses);
    EXPECT_EQ(A.RamanGlobalPulses, B.RamanGlobalPulses);
    EXPECT_EQ(A.RydbergPulses, B.RydbergPulses);
    EXPECT_EQ(A.ShuttleInstructions, B.ShuttleInstructions);
    EXPECT_EQ(A.ShuttleBatches, B.ShuttleBatches);
    EXPECT_EQ(A.ShuttleAnnotations, B.ShuttleAnnotations);
    EXPECT_EQ(A.MaxParallelShuttleWidth, B.MaxParallelShuttleWidth);
    EXPECT_EQ(A.TransferInstructions, B.TransferInstructions);
    EXPECT_EQ(A.TransferBatches, B.TransferBatches);
    EXPECT_EQ(A.CzGates, B.CzGates);
    EXPECT_EQ(A.CczGates, B.CczGates);
    EXPECT_EQ(A.NumAtoms, B.NumAtoms);
    EXPECT_EQ(bitsOf(A.Duration), bitsOf(B.Duration));
    EXPECT_EQ(bitsOf(A.Eps), bitsOf(B.Eps));
  }
}

TEST(GateLoweringPass, IntegerGeometryKeepsEveryDecision) {
  // Recorded with the micrometre-double emitter before coordinates became
  // whole nanometres: exact geometry must not move a single pulse, batch
  // or gate.
  struct Pin {
    int Vars, Index;
    bool Ladder;
    size_t Pulses, ShuttleBatches, TransferBatches, Cz, Ccz;
  };
  const Pin Pins[] = {
      {20, 1, false, 1822, 260, 197, 182, 182},
      {20, 1, true, 3509, 365, 197, 910, 0},
      {20, 2, false, 1784, 243, 186, 182, 182},
      {20, 2, true, 3449, 338, 186, 910, 0},
      {20, 3, false, 1760, 246, 187, 182, 182},
      {20, 3, true, 3436, 346, 187, 910, 0},
      {20, 4, false, 1800, 251, 188, 182, 182},
      {20, 4, true, 3487, 356, 188, 910, 0},
      {20, 5, false, 1803, 249, 183, 182, 182},
      {20, 5, true, 3501, 359, 183, 910, 0},
      {20, 6, false, 1765, 233, 173, 182, 182},
      {20, 6, true, 3441, 333, 173, 910, 0},
      {20, 7, false, 1768, 253, 188, 182, 182},
      {20, 7, true, 3466, 363, 188, 910, 0},
      {20, 8, false, 1777, 236, 176, 182, 182},
      {20, 8, true, 3453, 336, 176, 910, 0},
      {20, 9, false, 1803, 251, 183, 182, 182},
      {20, 9, true, 3512, 366, 183, 910, 0},
      {20, 10, false, 1831, 264, 198, 182, 182},
      {20, 10, true, 3529, 374, 198, 910, 0},
      {250, 1, false, 18327, 1709, 1637, 2130, 2130},
      {250, 1, true, 35745, 1943, 1637, 10650, 0},
  };
  for (const Pin &P : Pins) {
    WeaverOptions Opt;
    if (P.Ladder)
      Opt.Compression = WeaverOptions::CompressionMode::Off;
    auto R = compileWith(sat::satlibInstance(P.Vars, P.Index), Opt);
    ASSERT_TRUE(R.ok()) << R.message();
    SCOPED_TRACE("uf" + std::to_string(P.Vars) + "-" +
                 std::to_string(P.Index) + (P.Ladder ? " ladder" : ""));
    EXPECT_EQ(R->Stats.totalPulses(), P.Pulses);
    EXPECT_EQ(R->Stats.ShuttleBatches, P.ShuttleBatches);
    EXPECT_EQ(R->Stats.TransferBatches, P.TransferBatches);
    EXPECT_EQ(R->Stats.CzGates, P.Cz);
    EXPECT_EQ(R->Stats.CczGates, P.Ccz);
  }
}

TEST(GateLoweringPass, RejectsNonMonotoneColumnTargets) {
  // The emitter batches each boundary placement as one parallel shuttle
  // under the scheduler's monotone >= BumpGap target invariant; a
  // schedule violating it must be rejected (the former multi-sweep
  // fallback that silently handled it is gone).
  CnfFormula F = sat::RandomSatGenerator(9).generate(10, 30);
  CompilationContext Ctx;
  Ctx.Formula = &F;
  ASSERT_TRUE(ClauseColoringPass().run(Ctx).ok());
  ASSERT_TRUE(ZonePlanningPass().run(Ctx).ok());
  ASSERT_TRUE(ShuttleSchedulingPass().run(Ctx).ok());
  for (BoundarySchedule &B : Ctx.Boundaries)
    if (!B.Empty && B.ColumnTargets.size() >= 2) {
      std::swap(B.ColumnTargets.front(), B.ColumnTargets.back());
      break;
    }
  Status S = GateLoweringPass().run(Ctx);
  ASSERT_FALSE(S.ok());
  EXPECT_NE(S.message().find("monotone"), std::string::npos) << S.message();
}

TEST(GateLoweringPass, BoundaryShuttleEmissionIsLinearInColumns) {
  // The batched emitter must produce O(columns) @shuttle annotations per
  // colour boundary (Algorithm 2's parallel pickup), not the former
  // O(columns^2) bump-cascade stream. Bound the per-boundary annotation
  // count by the column count itself (coefficient 1) across sizes.
  for (int N : {20, 100}) {
    sat::CnfFormula F = sat::satlibInstance(N, 1);
    auto R = compileWeaver(F, WeaverOptions());
    ASSERT_TRUE(R.ok()) << R.message();
    size_t Columns = 0;
    for (const qasm::Annotation &A : R->Program.Statements[0].Annotations)
      if (A.Kind == qasm::AnnotationKind::Aod)
        Columns = A.AodXs.size();
    ASSERT_GT(Columns, 0u);
    size_t Boundaries = static_cast<size_t>(R->Coloring.numColors());
    EXPECT_LE(R->Stats.ShuttleAnnotations, Columns * Boundaries)
        << "N=" << N << ": shuttle stream is super-linear in columns";
    // Batching is real: parallel sets span many columns and the
    // individual-move count far exceeds the annotation count.
    EXPECT_GE(R->Stats.MaxParallelShuttleWidth, Columns / 2);
    EXPECT_GT(R->Stats.ShuttleInstructions,
              4 * R->Stats.ShuttleAnnotations);
  }
}

TEST(WeaverCompiler, ReportsPerPassTimings) {
  auto R = compileWeaver(paperExample());
  ASSERT_TRUE(R.ok()) << R.message();
  ASSERT_EQ(R->PassTimings.size(), 5u);
  double Sum = 0;
  for (const PassTiming &T : R->PassTimings)
    if (T.PassName != "pulse-emission")
      Sum += T.Seconds;
  EXPECT_DOUBLE_EQ(R->CompileSeconds, Sum);
}

} // namespace
