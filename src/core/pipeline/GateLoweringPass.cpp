//===- core/pipeline/GateLoweringPass.cpp - Gate lowering pass ------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/pipeline/GateLoweringPass.h"

#include "fpqa/Analysis.h"

#include <algorithm>

using namespace weaver;
using namespace weaver::core;
using namespace weaver::core::pipeline;
using circuit::Gate;
using circuit::GateKind;
using qasm::Annotation;
using sat::Clause;
using sat::Literal;

namespace {

constexpr double Pi = 3.14159265358979323846;

/// A rotation angle that is Coeff * (gamma or beta) when Parameterised —
/// every coefficient the emitter uses is an exact power of two, so the
/// product is bit-identical to the former inline expressions (Gamma / 4,
/// -Gamma / 2, 2 * Beta, ...) and can be re-substituted by the
/// program-template cache (see AngleSlot).
struct ParamAngle {
  double Value = 0;
  double Coeff = 0;
  AngleSlot::Param Dep = AngleSlot::Param::Gamma;
  bool Parameterised = false;
};

/// Executes the planned movement and lowers the clause gates. All
/// decisions were taken by the planning passes; this class only tracks the
/// column/row positions (whole nanometres) needed to emit exact shuttle
/// offsets (including bump cascades), and replays every annotation it
/// emits on a fresh device: that validates the program and accumulates
/// its pulse statistics in the same walk.
class Emitter {
public:
  explicit Emitter(CompilationContext &Ctx)
      : Ctx(Ctx), Formula(*Ctx.Formula), Replay(Ctx.Hw) {
    QubitColumn.assign(Formula.numVariables(), -1);
    QubitColumnEpoch.assign(Formula.numVariables(), 0);
  }

  Status run();

private:
  ParamAngle gammaAngle(double Coeff) const {
    return {Coeff * Ctx.Options.Qaoa.Gamma, Coeff, AngleSlot::Param::Gamma,
            true};
  }
  ParamAngle betaAngle(double Coeff) const {
    return {Coeff * Ctx.Options.Qaoa.Beta, Coeff, AngleSlot::Param::Beta,
            true};
  }

  // --- Emission primitives ---------------------------------------------
  Status pulse(Annotation A);
  void stmt(const Gate &G);
  /// Emits a local Raman pulse plus the matching logical 1-qubit gate.
  Status ramanGate(int Qubit, GateKind Kind, ParamAngle Angle = {});
  /// Emits a global Raman pulse plus one logical gate per qubit.
  Status globalRaman(GateKind Kind, ParamAngle Angle = {});

  // --- Movement ----------------------------------------------------------
  /// Walks the bump cascade of moving \p Column to \p X: the crowded
  /// neighbours it pushes along end Gap apart. Calls Place(column, target)
  /// for each moved column, farthest first so no step crosses a
  /// neighbour, and stops at the first error.
  template <typename Fn> Status bumpCascade(int Column, int32_t X, Fn &&Place);
  /// Emits the cascade as single-column @shuttle lines.
  Status moveColumnTo(int Column, int32_t X);
  Status shuttleRowTo(int32_t Y);
  Status transferHome(int Qubit, int Column);
  Status transferSite(const ClausePlan &CP);

  // --- Batched movement (Algorithm 2 parallel shuttle sets) --------------
  /// Stages a column move in memory: updates the ColX mirror with exactly
  /// the bump-cascade semantics of moveColumnTo, but emits nothing. The
  /// net displacements accumulate until flushColumnBatch() turns them into
  /// ONE parallel multi-column @shuttle — the whole AOD step the paper's
  /// Algorithm 2 performs at once, instead of O(moves) cascading pulses.
  void planColumnTo(int Column, int32_t X);
  /// Records \p Column's pre-batch position on first touch.
  void touchColumn(int Column);
  /// Emits the staged net moves as one @shuttle annotation (single-column
  /// form when only one column moved) and closes the batch. Columns whose
  /// staged moves cancelled out are skipped.
  Status flushColumnBatch();

  // --- Program structure -------------------------------------------------
  Status emitSetup();
  Status emitColor(int Color, const BoundarySchedule &Boundary);
  /// Order-preserving parallel load/unload rounds over (qubit, column)
  /// pairs sorted by column (Algorithm 2).
  Status emitHomeRounds(std::vector<Slot> Atoms);
  /// Executes a planned colour boundary: unload, load, then place all
  /// columns on their scheduled targets.
  Status emitColorBoundary(ColorPlan &Plan, const BoundarySchedule &B);
  Status emitFinalUnload();
  Status emitCompressedGates(const ColorPlan &Plan, int Color);
  Status emitLadderGates(const ColorPlan &Plan, int Color);
  Status emitPolarityConjugation(const ColorPlan &Plan);
  Status emitPairPhase(const ColorPlan &Plan);
  Status emitRzzLadderStep(const std::vector<std::pair<int, int>> &Pairs,
                           const std::vector<ParamAngle> &Thetas);
  Status emitCxStep(const std::vector<std::pair<int, int>> &Pairs);

  const Clause &clauseOf(const ClausePlan &CP) const {
    return Formula.clause(CP.ClauseIndex);
  }

  CompilationContext &Ctx;
  const sat::CnfFormula &Formula;
  fpqa::PulseReplayer Replay;

  std::vector<int32_t> ColX; ///< column position mirror (nm)
  int32_t RowYPos = 0;

  /// Open-batch staging state (see planColumnTo/flushColumnBatch).
  /// PreBatchX holds each touched column's position when the batch opened;
  /// the epoch array makes per-batch reset O(touched), not O(columns).
  std::vector<int32_t> PreBatchX;
  std::vector<uint32_t> TouchedEpoch;
  uint32_t BatchEpoch = 1;
  std::vector<int> TouchedColumns;

  qasm::WqasmProgram Program;
  std::vector<Annotation> Pending; ///< annotations awaiting next statement

  /// Parameterised angles inside Pending, resolved to final AngleSlots
  /// (with the flushing statement's index) by stmt().
  struct PendingAngle {
    size_t AnnIdx;
    AngleSlot::Field Where;
    double Coeff;
    AngleSlot::Param Dep;
  };
  std::vector<PendingAngle> PendingAngles;

  /// Epoch-tagged qubit -> column index for the current boundary; avoids
  /// both a per-boundary reset and the former clauses x slots scan.
  std::vector<int> QubitColumn;
  std::vector<uint32_t> QubitColumnEpoch;
  uint32_t ColumnEpoch = 0;

  /// High-water annotation count of a statement flush, used to pre-size
  /// Pending for the next boundary's movement burst.
  size_t PendingHint = 0;
};

Status Emitter::pulse(Annotation A) {
  if (Status S = Replay.step(A))
    return Status::error("codegen produced an invalid instruction: " +
                         S.message());
  Pending.push_back(std::move(A));
  return Status::success();
}

void Emitter::stmt(const Gate &G) {
  uint32_t StmtIdx = static_cast<uint32_t>(Program.Statements.size());
  // Hand the whole buffer to the flushing statement (O(1) swap — each
  // annotation is only ever written once, where it ends up). The next
  // boundary pre-sizes the fresh buffer from PendingHint, so the burst of
  // a movement cascade does not regrow it from scratch either.
  PendingHint = std::max(PendingHint, Pending.size());
  Program.Statements.push_back(qasm::GateStatement{G, {}});
  Program.Statements.back().Annotations.swap(Pending);
  for (const PendingAngle &P : PendingAngles)
    Ctx.AngleSlots.push_back({StmtIdx, static_cast<uint32_t>(P.AnnIdx),
                              P.Where, P.Dep, P.Coeff});
  PendingAngles.clear();
}

Status Emitter::ramanGate(int Qubit, GateKind Kind, ParamAngle Angle) {
  double X = 0, Y = 0, Z = 0;
  Gate G;
  AngleSlot::Field AnnField = AngleSlot::Field::AnnotationX;
  switch (Kind) {
  case GateKind::X:
    X = Pi;
    G = Gate(GateKind::X, {Qubit});
    break;
  case GateKind::H:
    Y = -Pi / 2;
    Z = Pi;
    G = Gate(GateKind::H, {Qubit});
    break;
  case GateKind::RX:
    X = Angle.Value;
    G = Gate(GateKind::RX, {Qubit}, {Angle.Value});
    break;
  case GateKind::RZ:
    Z = Angle.Value;
    G = Gate(GateKind::RZ, {Qubit}, {Angle.Value});
    AnnField = AngleSlot::Field::AnnotationZ;
    break;
  default:
    assert(false && "unsupported Raman gate kind");
  }
  bool Record = Ctx.CollectAngleSlots && Angle.Parameterised;
  if (Record)
    PendingAngles.push_back({Pending.size(), AnnField, Angle.Coeff,
                             Angle.Dep});
  if (Status S = pulse(Annotation::ramanLocal(Qubit, X, Y, Z)))
    return S;
  stmt(G);
  if (Record)
    Ctx.AngleSlots.push_back(
        {static_cast<uint32_t>(Program.Statements.size() - 1), 0,
         AngleSlot::Field::GateParam0, Angle.Dep, Angle.Coeff});
  return Status::success();
}

Status Emitter::globalRaman(GateKind Kind, ParamAngle Angle) {
  double X = 0, Y = 0, Z = 0;
  AngleSlot::Field AnnField = AngleSlot::Field::AnnotationX;
  switch (Kind) {
  case GateKind::H:
    Y = -Pi / 2;
    Z = Pi;
    break;
  case GateKind::RX:
    X = Angle.Value;
    break;
  case GateKind::RZ:
    Z = Angle.Value;
    AnnField = AngleSlot::Field::AnnotationZ;
    break;
  default:
    assert(false && "unsupported global Raman gate kind");
  }
  bool Record = Ctx.CollectAngleSlots && Angle.Parameterised;
  if (Record)
    PendingAngles.push_back({Pending.size(), AnnField, Angle.Coeff,
                             Angle.Dep});
  if (Status S = pulse(Annotation::ramanGlobal(X, Y, Z)))
    return S;
  for (int Q = 0; Q < Formula.numVariables(); ++Q) {
    Gate G = Kind == GateKind::H ? Gate(GateKind::H, {Q})
                                 : Gate(Kind, {Q}, {Angle.Value});
    stmt(G);
    if (Record)
      Ctx.AngleSlots.push_back(
          {static_cast<uint32_t>(Program.Statements.size() - 1), 0,
           AngleSlot::Field::GateParam0, Angle.Dep, Angle.Coeff});
  }
  return Status::success();
}

template <typename Fn>
Status Emitter::bumpCascade(int Column, int32_t X, Fn &&Place) {
  assert(Column >= 0 && Column < Ctx.NumColumns &&
         "column index out of range");
  int32_t Gap = Ctx.Options.Geometry.BumpGapNm;
  if (ColX[Column] == X)
    return Status::success();
  // Moving right, a column closer than Gap to its left neighbour's target
  // is pushed to that target + Gap; a neighbour exactly Gap away stays
  // put, so exactly-Gap-spaced park targets do not displace an
  // already-placed column. Moving left mirrors this.
  int Dir = X > ColX[Column] ? 1 : -1;
  int End = Column;
  for (int64_t T = X; End + Dir >= 0 && End + Dir < Ctx.NumColumns;
       T += Dir * int64_t{Gap}, End += Dir)
    if (Dir > 0 ? ColX[End + Dir] >= T + Gap : ColX[End + Dir] <= T - Gap)
      break;
  for (int C = End;; C -= Dir) {
    if (Status S = Place(C, X + (C - Column) * Gap))
      return S;
    if (C == Column)
      return Status::success();
  }
}

Status Emitter::moveColumnTo(int Column, int32_t X) {
  assert(TouchedColumns.empty() &&
         "single-column move while a staged batch is open");
  return bumpCascade(Column, X, [&](int C, int32_t Target) {
    if (Status S =
            pulse(Annotation::shuttle(/*Row=*/false, C, Target - ColX[C])))
      return S;
    ColX[C] = Target;
    return Status::success();
  });
}

void Emitter::touchColumn(int Column) {
  if (TouchedEpoch[Column] != BatchEpoch) {
    TouchedEpoch[Column] = BatchEpoch;
    PreBatchX[Column] = ColX[Column];
    TouchedColumns.push_back(Column);
  }
}

void Emitter::planColumnTo(int Column, int32_t X) {
  (void)bumpCascade(Column, X, [&](int C, int32_t Target) {
    touchColumn(C);
    ColX[C] = Target;
    return Status::success();
  });
}

Status Emitter::flushColumnBatch() {
  std::sort(TouchedColumns.begin(), TouchedColumns.end());
  std::vector<int> Indices;
  std::vector<int32_t> Offsets;
  Indices.reserve(TouchedColumns.size());
  Offsets.reserve(TouchedColumns.size());
  for (int C : TouchedColumns) {
    int32_t Delta = ColX[C] - PreBatchX[C];
    if (Delta == 0) // a bump cancelled by a later move
      continue;
    Indices.push_back(C);
    Offsets.push_back(Delta);
  }
  TouchedColumns.clear();
  ++BatchEpoch;
  if (Indices.empty())
    return Status::success();
  // The whole batch is one AOD step. The device validates the endpoint
  // configuration; with start and end both ordered, the simultaneous
  // linear motion in between cannot cross columns.
  if (Indices.size() == 1)
    return pulse(Annotation::shuttle(/*Row=*/false, Indices[0], Offsets[0]));
  return pulse(
      Annotation::shuttleParallel(/*Rows=*/false, std::move(Indices),
                                  std::move(Offsets)));
}

Status Emitter::shuttleRowTo(int32_t Y) {
  if (RowYPos == Y)
    return Status::success();
  if (Status S = pulse(Annotation::shuttle(/*Row=*/true, 0, Y - RowYPos)))
    return S;
  RowYPos = Y;
  return Status::success();
}

Status Emitter::transferHome(int Qubit, int Column) {
  // Home trap index equals the qubit id by construction; the transfer
  // direction is implied by which trap is occupied.
  return pulse(Annotation::transfer(Qubit, Column, 0));
}

Status Emitter::transferSite(const ClausePlan &CP) {
  return pulse(Annotation::transfer(CP.TargetTrap, CP.ColTarget, 0));
}

Status Emitter::emitSetup() {
  const Layout &L = Ctx.Options.Geometry;
  if (Status S = pulse(Annotation::slm(Ctx.SlmTraps)))
    return S;
  if (Ctx.NumColumns > 0) {
    std::vector<int32_t> Xs;
    for (int C = 0; C < Ctx.NumColumns; ++C)
      Xs.push_back(-L.ParkSpacingNm * (Ctx.NumColumns - C));
    ColX = Xs;
    PreBatchX.assign(Ctx.NumColumns, 0);
    TouchedEpoch.assign(Ctx.NumColumns, 0);
    RowYPos = L.PickupRowYNm;
    if (Status S = pulse(Annotation::aod(Xs, {RowYPos})))
      return S;
  }
  for (int Q = 0; Q < Formula.numVariables(); ++Q)
    if (Status S = pulse(Annotation::bindSlm(Q, Q)))
      return S;
  return Status::success();
}

/// Partitions \p Atoms into order-preserving rounds and, per round, aligns
/// each column with its atom's home trap and fires one parallel transfer
/// batch. This is Algorithm 2 (§5.3): atoms whose order along the AOD row
/// matches their order at the destination shuttle together; the rest wait
/// for a later round. Works symmetrically for loading (homes -> row) and
/// unloading (row -> homes); the transfer direction follows occupancy.
Status Emitter::emitHomeRounds(std::vector<Slot> Atoms) {
  const Layout &L = Ctx.Options.Geometry;
  std::sort(Atoms.begin(), Atoms.end(),
            [](const Slot &A, const Slot &B) { return A.Column < B.Column; });
  // Partition into the order-preserving rounds. First-fit placement onto
  // the round tails is equivalent to the former repeated greedy
  // maximal-increasing-subsequence extraction (an element lands in round
  // r exactly when it breaks the chains of rounds 0..r-1), and the tails
  // are non-increasing across rounds, so each element binary-searches its
  // round: O(k log k) instead of O(k x rounds) re-scans.
  std::vector<std::vector<Slot>> Rounds;
  std::vector<int32_t> Tails; ///< last home x per round, non-increasing
  for (const Slot &S : Atoms) {
    int32_t HomeX = L.homePosition(S.Qubit).X;
    size_t R =
        std::lower_bound(Tails.begin(), Tails.end(), HomeX,
                         [](int32_t Tail, int32_t H) { return Tail >= H; }) -
        Tails.begin();
    if (R == Rounds.size()) {
      Rounds.emplace_back();
      Tails.push_back(HomeX);
    } else {
      Tails[R] = HomeX;
    }
    Rounds[R].push_back(S);
  }
  for (const std::vector<Slot> &Round : Rounds) {
    // Stage every column move of the round and emit them as ONE parallel
    // multi-column shuttle. A bump cascade from a later staged move can
    // displace an earlier round column, so iterate the staging to a
    // simultaneous fixpoint first (homes sit HomeSpacing apart, far above
    // BumpGap, so this settles immediately in practice).
    bool AllAligned = false;
    for (int Sweep = 0; Sweep < 3 && !AllAligned; ++Sweep) {
      for (const Slot &S : Round)
        planColumnTo(S.Column, L.homePosition(S.Qubit).X);
      AllAligned = true;
      for (const Slot &S : Round)
        AllAligned &= ColX[S.Column] == L.homePosition(S.Qubit).X;
    }
    if (AllAligned) {
      // One AOD step, then one parallel transfer batch.
      if (Status St = flushColumnBatch())
        return St;
      for (const Slot &S : Round)
        if (Status St = transferHome(S.Qubit, S.Column))
          return St;
      continue;
    }
    // Pathological spacing (no simultaneous alignment): fall back to
    // interleaved move+transfer — each column is on its home at its own
    // transfer instant, like the pre-batching emitter.
    for (const Slot &S : Round) {
      planColumnTo(S.Column, L.homePosition(S.Qubit).X);
      if (Status St = flushColumnBatch())
        return St;
      if (Status St = transferHome(S.Qubit, S.Column))
        return St;
    }
  }
  return Status::success();
}

Status Emitter::emitFinalUnload() {
  if (Ctx.FinalUnload.empty())
    return Status::success();
  Pending.reserve(PendingHint);
  if (Status S = shuttleRowTo(Ctx.Options.Geometry.PickupRowYNm))
    return S;
  return emitHomeRounds(Ctx.FinalUnload);
}

Status Emitter::emitColorBoundary(ColorPlan &Plan,
                                  const BoundarySchedule &B) {
  if (B.Empty)
    return Status::success();
  Pending.reserve(PendingHint);
  if (B.NeedPickupShuttle)
    if (Status S = shuttleRowTo(Ctx.Options.Geometry.PickupRowYNm))
      return S;
  if (Status S = emitHomeRounds(B.ToUnload))
    return S;
  if (Status S = emitHomeRounds(B.ToLoad))
    return S;

  // Record the scheduled assignment on the plan. An epoch-tagged
  // qubit -> column index makes this O(slots + clauses) per boundary
  // instead of the former clauses x slots scan.
  int NumSlots = static_cast<int>(Plan.Slots.size());
  ++ColumnEpoch;
  for (int I = 0; I < NumSlots; ++I) {
    Plan.Slots[I].Column = B.SlotColumn[I];
    int Q = Plan.Slots[I].Qubit;
    QubitColumn[Q] = B.SlotColumn[I];
    QubitColumnEpoch[Q] = ColumnEpoch;
  }
  auto ColOf = [&](int Q, int Fallback) {
    return Q >= 0 && QubitColumnEpoch[Q] == ColumnEpoch ? QubitColumn[Q]
                                                        : Fallback;
  };
  for (ClausePlan &CP : Plan.Clauses) {
    CP.ColLeft = ColOf(CP.Left, CP.ColLeft);
    CP.ColTarget = ColOf(CP.Target, CP.ColTarget);
    CP.ColRight = ColOf(CP.Right, CP.ColRight);
  }

  // Place every column on its scheduled target in ONE parallel AOD step.
  // The scheduler guarantees targets ascending with >= BumpGap spacing
  // (the invariant the former per-column sweep relied on); under it a
  // staged rightward move can only bump a not-yet-staged column at most
  // onto its own target and a leftward move never reaches back to a
  // staged one, so one increasing staging sweep lands every column and
  // the whole boundary flushes as a single batch. Irregular targets would
  // be a scheduler bug — reject them instead of keeping the dead
  // multi-sweep fallback.
  const int32_t Gap = Ctx.Options.Geometry.BumpGapNm;
  for (int C = 0; C + 1 < Ctx.NumColumns; ++C)
    if (B.ColumnTargets[C + 1] - B.ColumnTargets[C] < Gap)
      return Status::error(
          "scheduled column targets are not monotone with BumpGap "
          "spacing; ShuttleSchedulingPass must produce them pre-monotone");
  for (int C = 0; C < Ctx.NumColumns; ++C)
    planColumnTo(C, B.ColumnTargets[C]);
#ifndef NDEBUG
  for (int C = 0; C < Ctx.NumColumns; ++C)
    assert(ColX[C] == B.ColumnTargets[C] &&
           "monotone staging sweep left a column off target");
#endif
  return flushColumnBatch();
}

Status Emitter::emitPolarityConjugation(const ColorPlan &Plan) {
  for (const ClausePlan &CP : Plan.Clauses)
    for (Literal Lit : clauseOf(CP))
      if (!Lit.isNegated())
        if (Status S = ramanGate(Lit.variable() - 1, GateKind::X))
          return S;
  return Status::success();
}

/// Emits one RZZ ladder step shared by every listed pair: H on the second
/// qubit, a global Rydberg CZ pulse, H-RZ-H, a second CZ pulse, H. All
/// pairs must already be the only atom groups inside the blockade radius.
Status Emitter::emitRzzLadderStep(
    const std::vector<std::pair<int, int>> &Pairs,
    const std::vector<ParamAngle> &Thetas) {
  assert(Pairs.size() == Thetas.size() && "one angle per pair");
  if (Pairs.empty())
    return Status::success();
  for (const auto &[A, B] : Pairs) {
    (void)A;
    if (Status S = ramanGate(B, GateKind::H))
      return S;
  }
  if (Status S = pulse(Annotation::rydberg()))
    return S;
  for (const auto &[A, B] : Pairs)
    stmt(Gate(GateKind::CZ, {A, B}));
  for (size_t I = 0; I < Pairs.size(); ++I) {
    int B = Pairs[I].second;
    if (Status S = ramanGate(B, GateKind::H))
      return S;
    if (Status S = ramanGate(B, GateKind::RZ, Thetas[I]))
      return S;
    if (Status S = ramanGate(B, GateKind::H))
      return S;
  }
  if (Status S = pulse(Annotation::rydberg()))
    return S;
  for (const auto &[A, B] : Pairs)
    stmt(Gate(GateKind::CZ, {A, B}));
  for (const auto &[A, B] : Pairs) {
    (void)A;
    if (Status S = ramanGate(B, GateKind::H))
      return S;
  }
  return Status::success();
}

/// Emits one CX layer shared by every listed (control, target) pair:
/// H(target), global Rydberg CZ, H(target).
Status Emitter::emitCxStep(const std::vector<std::pair<int, int>> &Pairs) {
  if (Pairs.empty())
    return Status::success();
  for (const auto &[C, T] : Pairs) {
    (void)C;
    if (Status S = ramanGate(T, GateKind::H))
      return S;
  }
  if (Status S = pulse(Annotation::rydberg()))
    return S;
  for (const auto &[C, T] : Pairs)
    stmt(Gate(GateKind::CZ, {C, T}));
  for (const auto &[C, T] : Pairs) {
    (void)C;
    if (Status S = ramanGate(T, GateKind::H))
      return S;
  }
  return Status::success();
}

/// Shared pair phase: with the row lifted clear of the targets, every
/// 3-literal clause runs its control-pair RZZ ladder and every 2-literal
/// clause runs its whole pair ladder; all CZs ride the same two global
/// Rydberg pulses. Leaves the row lifted.
Status Emitter::emitPairPhase(const ColorPlan &Plan) {
  const Layout &L = Ctx.Options.Geometry;
  std::vector<std::pair<int, int>> Pairs;
  std::vector<ParamAngle> Thetas;
  for (const ClausePlan &CP : Plan.Clauses) {
    if (CP.Width < 2)
      continue;
    Pairs.push_back({CP.Left, CP.Right});
    Thetas.push_back(CP.Width == 3 ? gammaAngle(0.25) : gammaAngle(0.5));
  }
  if (Pairs.empty())
    return Status::success();

  // Bring 2-literal pairs together; lift the row away from the targets.
  for (const ClausePlan &CP : Plan.Clauses)
    if (CP.Width == 2)
      if (Status S = moveColumnTo(CP.ColLeft, CP.SiteX))
        return S;
  if (Status S = shuttleRowTo(RowYPos + L.CzLiftNm))
    return S;

  if (Status S = emitRzzLadderStep(Pairs, Thetas))
    return S;

  // Separate the 2-literal pairs again.
  for (const ClausePlan &CP : Plan.Clauses)
    if (CP.Width == 2)
      if (Status S =
              moveColumnTo(CP.ColLeft, CP.SiteX - 2 * L.TriangleHalfWidthNm))
        return S;
  return Status::success();
}

Status Emitter::emitCompressedGates(const ColorPlan &Plan, int Color) {
  const Layout &L = Ctx.Options.Geometry;

  if (Status S = emitPolarityConjugation(Plan))
    return S;

  bool AnyTriple = false;
  for (const ClausePlan &CP : Plan.Clauses)
    AnyTriple |= CP.Width == 3;

  if (AnyTriple) {
    if (Status S = shuttleRowTo(L.gateRowY(Color)))
      return S;
    // Drop targets into their zone SLM traps, forming the triangles.
    for (const ClausePlan &CP : Plan.Clauses)
      if (CP.Width == 3)
        if (Status S = transferSite(CP))
          return S;
    // H(target), then the CCZ sandwich with RX(g/2) in the middle.
    for (const ClausePlan &CP : Plan.Clauses)
      if (CP.Width == 3)
        if (Status S = ramanGate(CP.Target, GateKind::H))
          return S;
    if (Status S = pulse(Annotation::rydberg()))
      return S;
    for (const ClausePlan &CP : Plan.Clauses)
      if (CP.Width == 3)
        stmt(Gate(GateKind::CCZ, {CP.Left, CP.Target, CP.Right}));
    for (const ClausePlan &CP : Plan.Clauses)
      if (CP.Width == 3)
        if (Status S = ramanGate(CP.Target, GateKind::RX, gammaAngle(0.5)))
          return S;
    if (Status S = pulse(Annotation::rydberg()))
      return S;
    for (const ClausePlan &CP : Plan.Clauses)
      if (CP.Width == 3)
        stmt(Gate(GateKind::CCZ, {CP.Left, CP.Target, CP.Right}));
    for (const ClausePlan &CP : Plan.Clauses)
      if (CP.Width == 3)
        if (Status S = ramanGate(CP.Target, GateKind::H))
          return S;
  }

  // Control-pair ladders (and complete 2-literal clauses) with the row
  // lifted so targets stay out of the blockade radius.
  if (Status S = emitPairPhase(Plan))
    return S;

  // Single-qubit residues.
  for (const ClausePlan &CP : Plan.Clauses) {
    switch (CP.Width) {
    case 1:
      if (Status S = ramanGate(CP.Target, GateKind::RZ, gammaAngle(-1.0)))
        return S;
      break;
    case 2:
      if (Status S = ramanGate(CP.Left, GateKind::RZ, gammaAngle(-0.5)))
        return S;
      if (Status S = ramanGate(CP.Right, GateKind::RZ, gammaAngle(-0.5)))
        return S;
      break;
    case 3:
      if (Status S = ramanGate(CP.Left, GateKind::RZ, gammaAngle(-0.25)))
        return S;
      if (Status S = ramanGate(CP.Right, GateKind::RZ, gammaAngle(-0.25)))
        return S;
      if (Status S = ramanGate(CP.Target, GateKind::RZ, gammaAngle(-0.5)))
        return S;
      break;
    }
  }

  // Retrieve targets back onto the row.
  if (AnyTriple) {
    if (Status S = shuttleRowTo(L.gateRowY(Color)))
      return S;
    for (const ClausePlan &CP : Plan.Clauses)
      if (CP.Width == 3)
        if (Status S = transferSite(CP))
          return S;
  }

  return emitPolarityConjugation(Plan);
}

/// Uncompressed lowering (§5.4 fallback / ablation): each 3-literal clause
/// is a pure CZ-ladder network. The three ZZ pair terms execute in the
/// configurations LT (right control shifted away), RT (left control
/// shifted away) and LR (row lifted); the cubic term is a CX ladder across
/// configurations LT-RT-LT.
Status Emitter::emitLadderGates(const ColorPlan &Plan, int Color) {
  const Layout &L = Ctx.Options.Geometry;

  if (Status S = emitPolarityConjugation(Plan))
    return S;

  std::vector<const ClausePlan *> Triples;
  for (const ClausePlan &CP : Plan.Clauses)
    if (CP.Width == 3)
      Triples.push_back(&CP);

  auto ShiftRight = [&](bool Away) {
    for (const ClausePlan *CP : Triples)
      if (Status S = moveColumnTo(CP->ColRight,
                                  CP->SiteX + L.TriangleHalfWidthNm +
                                      (Away ? L.PairShiftNm : 0)))
        return S;
    return Status::success();
  };
  auto ShiftLeft = [&](bool Away) {
    for (const ClausePlan *CP : Triples)
      if (Status S = moveColumnTo(CP->ColLeft,
                                  CP->SiteX - L.TriangleHalfWidthNm -
                                      (Away ? L.PairShiftNm : 0)))
        return S;
    return Status::success();
  };

  if (!Triples.empty()) {
    if (Status S = shuttleRowTo(L.gateRowY(Color)))
      return S;
    for (const ClausePlan *CP : Triples)
      if (Status S = transferSite(*CP))
        return S;

    std::vector<std::pair<int, int>> Pairs;
    std::vector<ParamAngle> Thetas;

    // Config LT: (Left, Target) pairs interact; Right shifted away.
    if (Status S = ShiftRight(/*Away=*/true))
      return S;
    Pairs.clear();
    Thetas.clear();
    for (const ClausePlan *CP : Triples) {
      Pairs.push_back({CP->Left, CP->Target});
      Thetas.push_back(gammaAngle(0.25));
    }
    if (Status S = emitRzzLadderStep(Pairs, Thetas))
      return S;

    // Config RT: (Target, Right) pairs; Left shifted away.
    if (Status S = ShiftRight(/*Away=*/false))
      return S;
    if (Status S = ShiftLeft(/*Away=*/true))
      return S;
    Pairs.clear();
    Thetas.clear();
    for (const ClausePlan *CP : Triples) {
      Pairs.push_back({CP->Target, CP->Right});
      Thetas.push_back(gammaAngle(0.25));
    }
    if (Status S = emitRzzLadderStep(Pairs, Thetas))
      return S;
    if (Status S = ShiftLeft(/*Away=*/false))
      return S;
  }

  // Config LR via the shared pair phase (also completes 2-literal
  // clauses); leaves the row lifted, so bring it back for the cubic part.
  if (Status S = emitPairPhase(Plan))
    return S;

  if (!Triples.empty()) {
    if (Status S = shuttleRowTo(L.gateRowY(Color)))
      return S;

    // Cubic CX ladder: CX(L,T) CX(T,R) RZ(R) CX(T,R) CX(L,T).
    std::vector<std::pair<int, int>> CxLT, CxTR;
    for (const ClausePlan *CP : Triples) {
      CxLT.push_back({CP->Left, CP->Target});
      CxTR.push_back({CP->Target, CP->Right});
    }
    if (Status S = ShiftRight(/*Away=*/true))
      return S;
    if (Status S = emitCxStep(CxLT))
      return S;
    if (Status S = ShiftRight(/*Away=*/false))
      return S;
    if (Status S = ShiftLeft(/*Away=*/true))
      return S;
    if (Status S = emitCxStep(CxTR))
      return S;
    for (const ClausePlan *CP : Triples)
      if (Status S = ramanGate(CP->Right, GateKind::RZ, gammaAngle(-0.25)))
        return S;
    if (Status S = emitCxStep(CxTR))
      return S;
    if (Status S = ShiftLeft(/*Away=*/false))
      return S;
    if (Status S = ShiftRight(/*Away=*/true))
      return S;
    if (Status S = emitCxStep(CxLT))
      return S;
    if (Status S = ShiftRight(/*Away=*/false))
      return S;
  }

  // Single-qubit terms: ladder form uses -g/4 on all three qubits.
  for (const ClausePlan &CP : Plan.Clauses) {
    switch (CP.Width) {
    case 1:
      if (Status S = ramanGate(CP.Target, GateKind::RZ, gammaAngle(-1.0)))
        return S;
      break;
    case 2:
      if (Status S = ramanGate(CP.Left, GateKind::RZ, gammaAngle(-0.5)))
        return S;
      if (Status S = ramanGate(CP.Right, GateKind::RZ, gammaAngle(-0.5)))
        return S;
      break;
    case 3:
      if (Status S = ramanGate(CP.Left, GateKind::RZ, gammaAngle(-0.25)))
        return S;
      if (Status S = ramanGate(CP.Target, GateKind::RZ, gammaAngle(-0.25)))
        return S;
      if (Status S = ramanGate(CP.Right, GateKind::RZ, gammaAngle(-0.25)))
        return S;
      break;
    }
  }

  // Retrieve targets back onto the row.
  if (!Triples.empty()) {
    if (Status S = shuttleRowTo(L.gateRowY(Color)))
      return S;
    for (const ClausePlan *CP : Triples)
      if (Status S = transferSite(*CP))
        return S;
  }

  return emitPolarityConjugation(Plan);
}

Status Emitter::emitColor(int Color, const BoundarySchedule &Boundary) {
  ColorPlan &Plan = Ctx.Plans[Color];
  if (Status S = emitColorBoundary(Plan, Boundary))
    return S;
  if (Ctx.Options.UseCompression)
    return emitCompressedGates(Plan, Color);
  return emitLadderGates(Plan, Color);
}

Status Emitter::run() {
  Program.NumQubits = Formula.numVariables();
  Program.NumBits = Ctx.Options.Measure ? Formula.numVariables() : 0;
  if (Status S = emitSetup())
    return S;
  if (Status S = globalRaman(GateKind::H))
    return S;
  size_t BoundaryIdx = 0;
  for (int Layer = 0; Layer < Ctx.Options.Qaoa.Layers; ++Layer) {
    for (int Color = 0; Color < Ctx.Coloring.numColors(); ++Color)
      if (Status S = emitColor(Color, Ctx.Boundaries[BoundaryIdx++]))
        return S;
    if (Status S = globalRaman(GateKind::RX, betaAngle(2.0)))
      return S;
  }
  // Park every atom back in its home trap so the program ends in the same
  // configuration it started from (and measurement happens in the SLM).
  if (Status S = emitFinalUnload())
    return S;
  if (Ctx.Options.Measure)
    for (int Q = 0; Q < Formula.numVariables(); ++Q)
      stmt(Gate(GateKind::Measure, {Q}));
  // Parameterised pulses are always followed by their statement, so none
  // can end up among the unpatched trailing annotations.
  assert(PendingAngles.empty() &&
         "parameterised angle left in trailing annotations");
  Program.TrailingAnnotations = std::move(Pending);
  Ctx.Program = std::move(Program);
  Ctx.Stats = Replay.finish();
  Ctx.HasStats = true;
  return Status::success();
}

} // namespace

Status GateLoweringPass::run(CompilationContext &Ctx) {
  if (Ctx.Boundaries.size() != static_cast<size_t>(Ctx.Options.Qaoa.Layers) *
                                   Ctx.Coloring.numColors())
    return Status::error("shuttle schedule does not cover the execution "
                         "order; run ShuttleSchedulingPass first");
  Ctx.AngleSlots.clear();
  Ctx.HasStats = false;
  Emitter E(Ctx);
  return E.run();
}
