//===- core/pipeline/ZonePlanningPass.cpp - Site placement pass -----------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/pipeline/ZonePlanningPass.h"

#include <algorithm>

using namespace weaver;
using namespace weaver::core;
using namespace weaver::core::pipeline;
using sat::Clause;
using sat::Literal;

Status ZonePlanningPass::run(CompilationContext &Ctx) {
  const sat::CnfFormula &Formula = *Ctx.Formula;
  const ClauseColoring &Coloring = Ctx.Coloring;
  const Layout &L = Ctx.Options.Geometry;
  int NumQubits = Formula.numVariables();

  // A colour holds at most one site per two qubits and one AOD column per
  // qubit, so no x the plan or the emitter derives reaches past Span. In
  // the coordinate bound, every position and difference fits an int32_t.
  int64_t Span = int64_t{L.ZoneStepXNm} * L.ZoneCycle +
                 2 * int64_t{L.TriangleHalfWidthNm} + L.PairShiftNm +
                 int64_t{NumQubits} * (int64_t{L.HomeSpacingNm} +
                                       L.SiteSpacingNm + L.ParkSpacingNm +
                                       L.BumpGapNm);
  if (Span > MaxCoordinateNm)
    return Status::error(std::to_string(NumQubits) +
                         " variables do not fit the +-1e6 um trap plane");

  // Home traps: one per variable, index == qubit id.
  for (int Q = 0; Q < NumQubits; ++Q)
    Ctx.SlmTraps.push_back(L.homePosition(Q));

  Ctx.Plans.resize(Coloring.numColors());
  size_t MaxSlots = 0;
  for (int Color = 0; Color < Coloring.numColors(); ++Color) {
    ColorPlan &Plan = Ctx.Plans[Color];
    // Deterministic site order: ascending smallest qubit.
    std::vector<size_t> ClauseIdxs = Coloring.ClausesByColor[Color];
    std::sort(ClauseIdxs.begin(), ClauseIdxs.end(), [&](size_t A, size_t B) {
      int MinA = Formula.clause(A)[0].variable(),
          MinB = Formula.clause(B)[0].variable();
      for (Literal Lit : Formula.clause(A))
        MinA = std::min(MinA, Lit.variable());
      for (Literal Lit : Formula.clause(B))
        MinB = std::min(MinB, Lit.variable());
      return MinA != MinB ? MinA < MinB : A < B;
    });
    int Site = 0;
    for (size_t CI : ClauseIdxs) {
      const Clause &C = Formula.clause(CI);
      if (C.size() > 3)
        return Status::error("clause " + std::to_string(CI) +
                             " has more than three literals");
      ClausePlan CP;
      CP.ClauseIndex = CI;
      CP.Width = static_cast<int>(C.size());
      std::vector<int> Qs;
      for (Literal Lit : C)
        Qs.push_back(Lit.variable() - 1);
      std::sort(Qs.begin(), Qs.end());
      if (CP.Width == 1) {
        CP.Target = Qs[0]; // executes at home, no site
        Plan.Clauses.push_back(CP);
        continue;
      }
      CP.Site = Site++;
      CP.SiteX = L.sitePosition(Color, CP.Site).X;
      if (CP.Width == 2) {
        CP.Left = Qs[0];
        CP.Right = Qs[1];
      } else {
        CP.Left = Qs[0];
        CP.Target = Qs[1];
        CP.Right = Qs[2];
        // Zone traps are shared by every colour cycled onto the same zone.
        auto Key = std::make_pair(L.zoneOf(Color), CP.Site);
        auto It = Ctx.ZoneSiteTrap.find(Key);
        if (It == Ctx.ZoneSiteTrap.end()) {
          It = Ctx.ZoneSiteTrap
                   .emplace(Key, static_cast<int>(Ctx.SlmTraps.size()))
                   .first;
          Ctx.SlmTraps.push_back(L.sitePosition(Color, CP.Site));
        }
        CP.TargetTrap = It->second;
      }
      Plan.Clauses.push_back(CP);
    }
    // Build the slot list (sorted by resting x since sites ascend).
    for (ClausePlan &CP : Plan.Clauses) {
      if (CP.Width == 2) {
        Plan.Slots.push_back(
            {CP.Left, -1, CP.SiteX - 2 * L.TriangleHalfWidthNm});
        Plan.Slots.push_back(
            {CP.Right, -1, CP.SiteX + 2 * L.TriangleHalfWidthNm});
      } else if (CP.Width == 3) {
        Plan.Slots.push_back({CP.Left, -1, CP.SiteX - L.TriangleHalfWidthNm});
        Plan.Slots.push_back({CP.Target, -1, CP.SiteX});
        Plan.Slots.push_back({CP.Right, -1, CP.SiteX + L.TriangleHalfWidthNm});
      }
    }
    MaxSlots = std::max(MaxSlots, Plan.Slots.size());
  }
  Ctx.NumColumns = static_cast<int>(MaxSlots);
  // Columns are assigned per colour by ShuttleSchedulingPass: with atom
  // reuse enabled the assignment depends on which atoms the previous
  // colour left on the row.
  return Status::success();
}
