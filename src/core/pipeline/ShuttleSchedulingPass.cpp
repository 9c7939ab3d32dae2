//===- core/pipeline/ShuttleSchedulingPass.cpp - Shuttle planning ---------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/pipeline/ShuttleSchedulingPass.h"

#include <algorithm>
#include <cassert>

using namespace weaver;
using namespace weaver::core;
using namespace weaver::core::pipeline;

namespace {

/// Simulated row occupancy threaded through the boundaries.
struct RowState {
  std::vector<int> AtomColumn; ///< qubit -> column on the row, or -1
  std::vector<int> ColumnAtom; ///< column -> qubit riding it, or -1
};

/// Plans one colour boundary against the current row occupancy and applies
/// its net effect to \p State. Mirrors the decision half of the former
/// Generator::emitColorBoundary exactly.
BoundarySchedule planBoundary(const ColorPlan &Plan,
                              const CompilationContext &Ctx,
                              RowState &State) {
  BoundarySchedule B;
  if (Plan.Slots.empty())
    return B;
  B.Empty = false;
  const Layout &L = Ctx.Options.Geometry;
  int32_t Gap = L.BumpGapNm;
  int NumColumns = Ctx.NumColumns;
  int NumSlots = static_cast<int>(Plan.Slots.size());

  // Idle (atom-free) columns caught between two slot columns must park in
  // the physical gap between the slots' resting positions. Capacity[i] is
  // how many parked columns fit between slot i and slot i+1 (zero inside a
  // clause triangle, ~19 between sites).
  std::vector<int> Capacity(NumSlots, 0);
  for (int I = 0; I + 1 < NumSlots; ++I)
    Capacity[I] =
        std::max(0, (Plan.Slots[I + 1].RestX - Plan.Slots[I].RestX) / Gap - 1);

  // Select reusable atoms (Algorithm 2's order-preservation condition,
  // adapted to fixed column indices): a row atom keeps its column when
  // (a) the columns left/right of it suffice for the earlier/later slots,
  // and (b) the idle columns trapped between it and the previously kept
  // column fit into the physical slot gaps in between.
  std::vector<int> SlotColumn(NumSlots, -1);
  std::vector<bool> ColumnKept(NumColumns, false);
  if (Ctx.Options.ReuseAodAtoms) {
    int LastCol = -1, LastSlot = -1;
    for (int I = 0; I < NumSlots; ++I) {
      int Q = Plan.Slots[I].Qubit;
      int C = State.AtomColumn[Q];
      if (C < 0)
        continue;
      if (C < LastCol + (I - LastSlot) || C > NumColumns - (NumSlots - I))
        continue;
      if (LastSlot >= 0) {
        int Idle = (C - LastCol - 1) - (I - LastSlot - 1);
        int Room = 0;
        for (int T = LastSlot; T < I; ++T)
          Room += Capacity[T];
        if (Idle > Room)
          continue;
      }
      SlotColumn[I] = C;
      ColumnKept[C] = true;
      LastCol = C;
      LastSlot = I;
    }
  }

  // Unload every row atom that is not kept.
  for (int C = 0; C < NumColumns; ++C)
    if (State.ColumnAtom[C] != -1 && !ColumnKept[C])
      B.ToUnload.push_back({State.ColumnAtom[C], C, 0});
  bool NeedLoading = false;
  for (int I = 0; I < NumSlots; ++I)
    NeedLoading |= SlotColumn[I] == -1;
  B.NeedPickupShuttle = !B.ToUnload.empty() || NeedLoading;

  // Assign columns to the runs of unassigned slots.
  //  * A run that ends at a kept column distributes the idle columns the
  //    kept atom traps (quota-checked above) greedily into the earliest
  //    slot gaps, placing the new slots on the indices in between.
  //  * The head run (no kept column before it) right-aligns against the
  //    first kept column so all idle columns park on the unbounded left.
  //  * The tail run (no kept column after it) takes indices immediately
  //    after the last kept column so idles park on the unbounded right.
  for (int I = 0; I < NumSlots;) {
    if (SlotColumn[I] != -1) {
      ++I;
      continue;
    }
    int RunEnd = I; // one past the run of unassigned slots
    while (RunEnd < NumSlots && SlotColumn[RunEnd] == -1)
      ++RunEnd;
    int LastCol = I == 0 ? -1 : SlotColumn[I - 1];
    if (RunEnd == NumSlots) {
      // Tail (or no kept at all): consecutive indices after LastCol.
      for (int T = I; T < RunEnd; ++T)
        SlotColumn[T] = ++LastCol;
    } else if (I == 0) {
      // Head run: right-align against the first kept column.
      int KeptCol = SlotColumn[RunEnd];
      for (int T = RunEnd - 1, C = KeptCol - 1; T >= 0; --T, --C)
        SlotColumn[T] = C;
    } else {
      // Interior run bounded by kept columns on both sides: spread the
      // trapped idle columns into the gaps greedily, earliest first.
      int KeptCol = SlotColumn[RunEnd];
      int RunLen = RunEnd - I;
      int Idle = (KeptCol - LastCol - 1) - RunLen;
      int Cursor = LastCol;
      for (int T = I; T < RunEnd; ++T) {
        int G = std::min(Idle, Capacity[T - 1]);
        Cursor += G;
        Idle -= G;
        SlotColumn[T] = ++Cursor;
      }
      assert(Idle <= Capacity[RunEnd - 1] &&
             "interior idle columns exceed the final gap capacity");
    }
    for (int T = I; T < RunEnd; ++T) {
      assert(SlotColumn[T] >= 0 && SlotColumn[T] < NumColumns &&
             !ColumnKept[SlotColumn[T]] && "column assignment out of range");
      B.ToLoad.push_back(
          {Plan.Slots[T].Qubit, SlotColumn[T], Plan.Slots[T].RestX});
    }
    I = RunEnd;
  }
  B.SlotColumn = SlotColumn;

  // Compute an explicit target for EVERY column: slot columns rest at
  // their slot x; idle columns park left of the first slot, in the gaps
  // between slots, or right of the last slot. Targets ascend with index
  // and keep >= Gap spacing, so the placement sweep cannot trigger
  // displacement cascades.
  B.ColumnTargets.resize(NumColumns);
  int FirstSlotCol = SlotColumn[0], LastSlotCol = SlotColumn[NumSlots - 1];
  for (int C = FirstSlotCol - 1, K = 1; C >= 0; --C, ++K)
    B.ColumnTargets[C] = Plan.Slots[0].RestX - Gap * K;
  for (int C = LastSlotCol + 1, K = 1; C < NumColumns; ++C, ++K)
    B.ColumnTargets[C] = Plan.Slots[NumSlots - 1].RestX + Gap * K;
  {
    int SlotIdx = 0;
    int32_t ParkBase = 0;
    int ParkRank = 0;
    for (int C = FirstSlotCol; C <= LastSlotCol; ++C) {
      if (SlotIdx < NumSlots && SlotColumn[SlotIdx] == C) {
        B.ColumnTargets[C] = Plan.Slots[SlotIdx].RestX;
        ParkBase = Plan.Slots[SlotIdx].RestX;
        ParkRank = 0;
        ++SlotIdx;
        continue;
      }
      B.ColumnTargets[C] = ParkBase + Gap * ++ParkRank;
    }
  }

  // Net occupancy effect: unloaded atoms leave the row; after loading the
  // row holds exactly the colour's slots on their assigned columns.
  for (const Slot &S : B.ToUnload) {
    State.ColumnAtom[S.Column] = -1;
    State.AtomColumn[S.Qubit] = -1;
  }
  for (const Slot &S : B.ToLoad) {
    State.AtomColumn[S.Qubit] = S.Column;
    State.ColumnAtom[S.Column] = S.Qubit;
  }
  return B;
}

} // namespace

Status ShuttleSchedulingPass::run(CompilationContext &Ctx) {
  RowState State;
  State.AtomColumn.assign(Ctx.Formula->numVariables(), -1);
  State.ColumnAtom.assign(Ctx.NumColumns, -1);

  int NumColors = Ctx.Coloring.numColors();
  Ctx.Boundaries.reserve(
      static_cast<size_t>(Ctx.Options.Qaoa.Layers) * NumColors);
  for (int Layer = 0; Layer < Ctx.Options.Qaoa.Layers; ++Layer)
    for (int Color = 0; Color < NumColors; ++Color)
      Ctx.Boundaries.push_back(planBoundary(Ctx.Plans[Color], Ctx, State));

  // Park every atom back in its home trap at the end of the program.
  for (int C = 0; C < Ctx.NumColumns; ++C)
    if (State.ColumnAtom[C] != -1)
      Ctx.FinalUnload.push_back({State.ColumnAtom[C], C, 0});
  return Status::success();
}
