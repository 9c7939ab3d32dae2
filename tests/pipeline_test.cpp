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

TEST(GoldenParity, MixedWidthsTwoLayersMeasured) {
  CnfFormula Mixed(5, {Clause{1}, Clause{-2, 3}, Clause{-3, -4, -5},
                       Clause{2, 4}, Clause{-1, 4, 5}});
  WeaverOptions Opt;
  Opt.Qaoa.Layers = 2;
  Opt.Measure = true;
  auto R = compileWith(Mixed, Opt);
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_EQ(qasm::printWqasm(R->Program), readGolden("golden_mixed.wqasm"));
}

TEST(GoldenParity, PaperScaleUf250ByteIdentity) {
  // The goldens are 12-variable programs; this pins the printer at the
  // paper's largest size. Length and FNV-1a hash were recorded with the
  // snprintf-based printer the append-only one replaced. A 4.3 MB text
  // file would be churn, so only its fingerprint is committed.
  auto R = compileWith(sat::satlibInstance(250, 1), WeaverOptions());
  ASSERT_TRUE(R.ok()) << R.message();
  std::string Text = qasm::printWqasm(R->Program);
  EXPECT_EQ(Text.size(), 4281836u);
  EXPECT_EQ(fnv1a64(Text.data(), Text.size()), 0x3a549667b996504fULL);
  // print -> parse -> print is a fixed point at this size too.
  auto Back = qasm::parseWqasm(Text);
  ASSERT_TRUE(Back.ok()) << Back.message();
  EXPECT_TRUE(qasm::printWqasm(*Back) == Text);
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

TEST(PulseEmissionPass, FlattensStreamAndDerivesStats) {
  CnfFormula F = paperExample();
  CompilationContext Ctx;
  Ctx.Formula = &F;
  ASSERT_TRUE(PassManager::standardFpqaPipeline().run(Ctx).ok());
  EXPECT_TRUE(Ctx.HasStats);
  EXPECT_EQ(Ctx.PulseStream.size(), Ctx.Program.numAnnotations());
  EXPECT_GT(Ctx.Stats.totalPulses(), 0u);
  EXPECT_GT(Ctx.Stats.RydbergPulses, 0u);
  EXPECT_GT(Ctx.Stats.Duration, 0.0);
  EXPECT_GT(Ctx.Stats.Eps, 0.0);
}

TEST(PulseEmissionPass, StreamIsNonOwningViewIntoProgram) {
  CnfFormula F = paperExample();
  CompilationContext Ctx;
  Ctx.Formula = &F;
  ASSERT_TRUE(PassManager::standardFpqaPipeline().run(Ctx).ok());
  ASSERT_FALSE(Ctx.PulseStream.empty());
  // Every stream element points into the program, in execution order —
  // the annotations are never copied out of it.
  size_t I = 0;
  for (const qasm::Annotation &A : qasm::AnnotationView(Ctx.Program)) {
    ASSERT_LT(I, Ctx.PulseStream.size());
    EXPECT_EQ(Ctx.PulseStream[I], &A) << "stream index " << I;
    ++I;
  }
  EXPECT_EQ(I, Ctx.PulseStream.size());
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
