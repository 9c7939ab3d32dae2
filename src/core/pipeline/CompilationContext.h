//===- core/pipeline/CompilationContext.h - Shared pass state --*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The compilation context every pass of the FPQA pipeline reads and
/// extends: the input formula and hardware, the clause colouring (§5.2),
/// the zone/site placement plan (§5.3, Fig. 5), the per-boundary shuttle
/// schedules (Algorithm 2), the emitted wQASM program, the replayed pulse
/// statistics, and per-pass timing diagnostics. Passes communicate only
/// through this context, so each stage can be tested in isolation, and
/// PassCache can capture and restore whole sections of it.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_CORE_PIPELINE_COMPILATIONCONTEXT_H
#define WEAVER_CORE_PIPELINE_COMPILATIONCONTEXT_H

#include "core/ClauseColoring.h"
#include "core/Layout.h"
#include "fpqa/Analysis.h"
#include "fpqa/HardwareParams.h"
#include "qaoa/Builder.h"
#include "qasm/Program.h"
#include "sat/Cnf.h"
#include "support/CancelToken.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace weaver {
namespace core {

/// Code generation options.
struct CodegenOptions {
  Layout Geometry;
  qaoa::QaoaParams Qaoa;
  /// Use the Fig. 7 CCZ fragments. When false, clauses lower to CZ-only
  /// ladders (ablation / unprofitable-CCZ fallback).
  bool UseCompression = true;
  /// Keep atoms needed by the next colour in their AOD traps instead of
  /// returning them to SLM home traps — the core saving of the paper's
  /// colour shuttling pass (§5.3, Algorithm 2: "transfer_to_aod(a) //
  /// Used in next color"). Disable for the ablation study.
  bool ReuseAodAtoms = true;
  /// Emit trailing measurements.
  bool Measure = false;
};

namespace pipeline {

/// Per-clause placement plan within a colour (Fig. 5 site assignment).
struct ClausePlan {
  size_t ClauseIndex = 0;
  int Width = 0;          ///< number of literals (1..3)
  int Site = 0;           ///< site index within the colour
  int32_t SiteX = 0;      ///< site centre x (nm)
  // Sorted participating qubits. Width==3: Left/Target/Right;
  // Width==2: Left/Right; Width==1: Target only (stays home).
  int Left = -1, Target = -1, Right = -1;
  int ColLeft = -1, ColTarget = -1, ColRight = -1;
  int TargetTrap = -1;    ///< SLM trap index for the target (Width==3)
};

/// One AOD slot: a (qubit, column, resting x) triple for a colour.
struct Slot {
  int Qubit = -1;
  int Column = -1;
  int32_t RestX = 0; ///< x (nm) while the colour's triangles are formed
};

/// Placement plan of one colour: its clause sites and AOD slots.
struct ColorPlan {
  std::vector<ClausePlan> Clauses;
  std::vector<Slot> Slots; ///< sorted by RestX ascending
};

/// Planned atom traffic for one colour boundary — one (layer, colour) step
/// of the execution order. Computed by ShuttleSchedulingPass from the
/// simulated row occupancy; executed by GateLoweringPass.
struct BoundarySchedule {
  /// The boundary belongs to a colour without AOD slots; nothing moves.
  bool Empty = true;
  /// The row must visit the pickup row before transfers happen.
  bool NeedPickupShuttle = false;
  /// Row atoms returning to their home traps (Column valid).
  std::vector<Slot> ToUnload;
  /// Home atoms loading onto the row (Column and RestX valid).
  std::vector<Slot> ToLoad;
  /// Column assigned to each slot of the colour's plan.
  std::vector<int> SlotColumn;
  /// Final resting x (nm) of EVERY column once the boundary completes.
  std::vector<int32_t> ColumnTargets;
};

/// Wall-clock duration of one executed pass.
struct PassTiming {
  std::string PassName;
  double Seconds = 0;
};

/// One parameterised angle inside the emitted program: the double at the
/// recorded position equals Coeff * (Gamma or Beta). Every coefficient the
/// emitter uses is an exact power of two (±1/4, ±1/2, ±1, 2), so
/// substituting a different parameter value reproduces the directly
/// computed double bit for bit — the property the program-template cache
/// relies on for byte-identical output.
struct AngleSlot {
  enum class Param : uint8_t { Gamma, Beta };
  enum class Field : uint8_t {
    GateParam0,  ///< Statements[Statement].Gate parameter 0
    AnnotationX, ///< annotationsOf(Statement)[Annotation].AngleX
    AnnotationZ, ///< annotationsOf(Statement)[Annotation].AngleZ
  };
  uint32_t Statement = 0;
  /// Index within the statement's annotations; meaningful unless Field ==
  /// GateParam0. Relative, not flat, so the snapshot format keeps the
  /// per-statement lists it was written with.
  uint32_t Annotation = 0;
  Field Where = Field::GateParam0;
  Param Dep = Param::Gamma;
  double Coeff = 0;
};

/// All state shared between the pipeline passes. Inputs are set by the
/// driver before PassManager::run; each pass fills its output section.
struct CompilationContext {
  // --- Inputs -----------------------------------------------------------
  const sat::CnfFormula *Formula = nullptr;
  fpqa::HardwareParams Hw;
  CodegenOptions Options;
  /// Colouring heuristic selection when the pipeline colours the formula
  /// itself (ClauseColoringPass); ignored when HasColoring is set.
  bool UseDSatur = true;
  /// Optional cooperative cancellation token (not owned). PassManager::run
  /// checks it between passes and aborts with a CancelledDiagnostic status.
  const CancelToken *Cancel = nullptr;

  // --- ClauseColoringPass -----------------------------------------------
  ClauseColoring Coloring;
  /// Set when the driver supplied a colouring; ClauseColoringPass then
  /// validates instead of recolouring.
  bool HasColoring = false;

  // --- ZonePlanningPass -------------------------------------------------
  std::vector<ColorPlan> Plans;
  std::vector<Vec2> SlmTraps;      ///< homes first, then zone target traps
  std::map<std::pair<int, int>, int> ZoneSiteTrap; ///< (zone, site) -> trap
  int NumColumns = 0;

  // --- ShuttleSchedulingPass (execution order, layer-major) -------------
  std::vector<BoundarySchedule> Boundaries;
  /// Atoms still on the row after the last layer, unloaded at the end.
  std::vector<Slot> FinalUnload;

  // --- GateLoweringPass -------------------------------------------------
  qasm::WqasmProgram Program;
  /// When set (by compileWeaver while building a program template), the
  /// emitter records where every gamma/beta-dependent angle lives in
  /// Program.
  bool CollectAngleSlots = false;
  std::vector<AngleSlot> AngleSlots;
  /// The replay of Program on a fresh device, accumulated by the emitter
  /// as it validates each annotation (PulseEmissionPass publishes it).
  fpqa::PulseStats Stats;
  bool HasStats = false;

  // --- Diagnostics ------------------------------------------------------
  std::vector<PassTiming> Timings;

  /// Sum of recorded pass durations, excluding \p ExcludedPass (pass an
  /// empty string to sum everything).
  double elapsedSeconds(const std::string &ExcludedPass = "") const {
    double Total = 0;
    for (const PassTiming &T : Timings)
      if (ExcludedPass.empty() || T.PassName != ExcludedPass)
        Total += T.Seconds;
    return Total;
  }
};

} // namespace pipeline
} // namespace core
} // namespace weaver

#endif // WEAVER_CORE_PIPELINE_COMPILATIONCONTEXT_H
