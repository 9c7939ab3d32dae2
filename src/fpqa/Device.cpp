//===- fpqa/Device.cpp - Checked FPQA device state machine ----------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "fpqa/Device.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

using namespace weaver;
using namespace weaver::fpqa;
using qasm::Annotation;
using qasm::AnnotationKind;

namespace {

/// Packs signed cell coordinates into one table key. Wrap-around at 2^32
/// cells can only merge far-apart cells, which the exact distance check
/// filters out again — never a correctness issue.
uint64_t packCell(int64_t CellX, int64_t CellY) {
  return (static_cast<uint64_t>(static_cast<uint32_t>(CellX)) << 32) |
         static_cast<uint64_t>(static_cast<uint32_t>(CellY));
}

/// Cell index of coordinate \p V: floor division by the cell size.
int64_t cellIndex(int32_t V, int32_t CellSize) {
  return V / CellSize - (V % CellSize < 0);
}

/// Square of a length, exact in 64 bits.
int64_t squared(int32_t V) { return int64_t{V} * V; }

/// Flat open-addressing table from a square cell to the points in it (see
/// the file comment of Device.h). Cells are at least |Distance| wide, so
/// points closer than that sit in the same or neighbouring cells, and at
/// most INT32_MAX, where every in-range coordinate is in cell -1 or 0.
class CellTable {
public:
  CellTable(const std::vector<Vec2> &Points, int64_t Distance)
      : CellSize(static_cast<int32_t>(std::clamp<int64_t>(
            Distance < 0 ? -Distance : Distance, 1, INT32_MAX))) {
    size_t Slots = 16;
    while (Slots < 2 * Points.size())
      Slots *= 2;
    Keys.resize(Slots);
    Head.assign(Slots, -1);
    Next.resize(Points.size());
    for (size_t I = 0; I < Points.size(); ++I) {
      uint64_t Key = packCell(cellIndex(Points[I].X, CellSize),
                              cellIndex(Points[I].Y, CellSize));
      size_t S = slotOf(Key);
      Keys[S] = Key;
      Next[I] = Head[S];
      Head[S] = static_cast<int>(I);
    }
  }

  /// Calls \p Visit(J) for every point J in the 3x3 cells around \p P.
  template <typename Fn> void forNeighbours(Vec2 P, Fn &&Visit) const {
    int64_t CellX = cellIndex(P.X, CellSize), CellY = cellIndex(P.Y, CellSize);
    for (int64_t DX = -1; DX <= 1; ++DX)
      for (int64_t DY = -1; DY <= 1; ++DY)
        for (int J = Head[slotOf(packCell(CellX + DX, CellY + DY))]; J != -1;
             J = Next[J])
          Visit(J);
  }

private:
  /// The slot holding cell \p Key, or the empty one it would take:
  /// Fibonacci hashing and linear probing, at most half the slots used.
  size_t slotOf(uint64_t Key) const {
    size_t Mask = Head.size() - 1;
    size_t S = static_cast<size_t>((Key * 0x9E3779B97F4A7C15ull) >> 32) & Mask;
    while (Head[S] != -1 && Keys[S] != Key)
      S = (S + 1) & Mask;
    return S;
  }

  int32_t CellSize;
  std::vector<uint64_t> Keys; ///< packed cell coordinates per slot
  std::vector<int> Head;      ///< slot's first point, or -1 when empty
  std::vector<int> Next;      ///< per point: next one in its cell, or -1
};

} // namespace

Status FpqaDevice::apply(const Annotation &A) {
  switch (A.Kind) {
  case AnnotationKind::Slm:
    return applySlm(A);
  case AnnotationKind::Aod:
    return applyAod(A);
  case AnnotationKind::Bind:
    return applyBind(A);
  case AnnotationKind::Transfer:
    return applyTransfer(A);
  case AnnotationKind::Shuttle:
    return applyShuttle(A.ShuttleRow, &A.ShuttleIndex, &A.Offset, 1);
  case AnnotationKind::ShuttleParallel:
    if (A.ShuttleIndices.size() != A.ShuttleOffsets.size())
      return Status::error("@shuttle parallel form needs one offset per "
                           "index");
    return applyShuttle(A.ShuttleRow, A.ShuttleIndices.data(),
                        A.ShuttleOffsets.data(), A.ShuttleIndices.size());
  case AnnotationKind::RamanGlobal:
  case AnnotationKind::RamanLocal:
    return applyRaman(A);
  case AnnotationKind::Rydberg:
    // Validity of the entangling pattern is checked by clustering; the
    // memoised decomposition is reused by the caller's follow-up query
    // without another copy.
    return ClustersValid ? Status::success() : computeClusters();
  }
  return Status::error("unknown annotation kind");
}

Status FpqaDevice::applySlm(const Annotation &A) {
  const std::vector<Vec2> &Traps = A.TrapPositions;
  for (const Vec2 &P : Traps)
    if (!inCoordinateRange(P.X) || !inCoordinateRange(P.Y))
      return Status::error("@slm trap coordinate outside the +-1e6 um range");
  // Report the lexicographically first crowded pair (I, J), as an
  // all-pairs scan would: the first I with a crowded J > I, and its
  // smallest such J. A zero separation crowds nothing.
  const int64_t MinSep2 = squared(Params.MinSlmSeparationNm);
  CellTable Cells(Traps, Params.MinSlmSeparationNm);
  for (size_t I = 0; MinSep2 > 0 && I < Traps.size(); ++I) {
    size_t J = SIZE_MAX;
    Cells.forNeighbours(Traps[I], [&](int Other) {
      size_t K = static_cast<size_t>(Other);
      if (K > I && K < J && distanceSquared(Traps[I], Traps[K]) < MinSep2)
        J = K;
    });
    if (J != SIZE_MAX)
      return Status::error(
          "@slm traps " + std::to_string(I) + " and " + std::to_string(J) +
          " closer than the minimum separation");
  }
  if (!SlmTraps.empty())
    return Status::error("@slm layer already initialised");
  SlmTraps = A.TrapPositions;
  SlmOccupants.assign(SlmTraps.size(), -1);
  return Status::success();
}

Status FpqaDevice::applyAod(const Annotation &A) {
  auto CheckOrdered = [&](const std::vector<int32_t> &Vals,
                          const char *What) {
    for (size_t I = 0; I < Vals.size(); ++I) {
      if (!inCoordinateRange(Vals[I]))
        return Status::error(std::string("@aod ") + What +
                             " coordinate outside the +-1e6 um range");
      if (I > 0 && int64_t{Vals[I]} - Vals[I - 1] < Params.MinAodSeparationNm)
        return Status::error(std::string("@aod ") + What +
                             " coordinates must increase by at least the "
                             "minimum AOD separation");
    }
    return Status::success();
  };
  if (Status S = CheckOrdered(A.AodXs, "column"))
    return S;
  if (Status S = CheckOrdered(A.AodYs, "row"))
    return S;
  if (!ColumnX.empty() || !RowY.empty())
    return Status::error("@aod layer already initialised");
  ColumnX = A.AodXs;
  RowY = A.AodYs;
  ColumnAtoms.assign(ColumnX.size(), {});
  RowAtoms.assign(RowY.size(), {});
  return Status::success();
}

Status FpqaDevice::applyBind(const Annotation &A) {
  if (A.Qubit < 0)
    return Status::error("@bind requires a non-negative qubit id");
  if (static_cast<size_t>(A.Qubit) >= Locations.size()) {
    Locations.resize(A.Qubit + 1);
    RowSlot.resize(A.Qubit + 1, -1);
  }
  if (Locations[A.Qubit].Kind != AtomLocation::Layer::Unbound)
    return Status::error("@bind: qubit " + std::to_string(A.Qubit) +
                         " is already bound");
  if (A.BindToSlm) {
    if (A.SlmIndex < 0 || static_cast<size_t>(A.SlmIndex) >= SlmTraps.size())
      return Status::error("@bind: SLM index out of range");
    if (SlmOccupants[A.SlmIndex] != -1)
      return Status::error("@bind: SLM trap " + std::to_string(A.SlmIndex) +
                           " already holds an atom");
    SlmOccupants[A.SlmIndex] = A.Qubit;
    Locations[A.Qubit] = {AtomLocation::Layer::Slm, A.SlmIndex, -1, -1};
    ClustersValid = false;
    ++BoundAtoms;
    return Status::success();
  }
  if (A.AodCol < 0 || static_cast<size_t>(A.AodCol) >= ColumnX.size() ||
      A.AodRow < 0 || static_cast<size_t>(A.AodRow) >= RowY.size())
    return Status::error("@bind: AOD trap index out of range");
  if (aodOccupant(A.AodCol, A.AodRow) != -1)
    return Status::error("@bind: AOD trap already holds an atom");
  setAodOccupant(A.AodCol, A.AodRow, A.Qubit);
  Locations[A.Qubit] = {AtomLocation::Layer::Aod, -1, A.AodCol, A.AodRow};
  ClustersValid = false;
  ++BoundAtoms;
  return Status::success();
}

Status FpqaDevice::applyTransfer(const Annotation &A) {
  if (A.SlmIndex < 0 || static_cast<size_t>(A.SlmIndex) >= SlmTraps.size())
    return Status::error("@transfer: SLM index out of range");
  if (A.AodCol < 0 || static_cast<size_t>(A.AodCol) >= ColumnX.size() ||
      A.AodRow < 0 || static_cast<size_t>(A.AodRow) >= RowY.size())
    return Status::error("@transfer: AOD trap index out of range");
  Vec2 SlmPos = SlmTraps[A.SlmIndex];
  Vec2 AodPos{ColumnX[A.AodCol], RowY[A.AodRow]};
  int64_t D2 = distanceSquared(SlmPos, AodPos);
  if (D2 > squared(Params.MaxTransferDistanceNm))
    return Status::error("@transfer: traps are too far apart (" +
                         std::to_string(std::sqrt(D2) * 1e-3) + " um)");
  int SlmAtom = SlmOccupants[A.SlmIndex];
  int AodAtom = aodOccupant(A.AodCol, A.AodRow);
  if (SlmAtom != -1 && AodAtom != -1)
    return Status::error("@transfer: both traps are occupied");
  if (SlmAtom == -1 && AodAtom == -1)
    return Status::error("@transfer: both traps are empty");
  if (SlmAtom != -1) {
    // SLM -> AOD.
    SlmOccupants[A.SlmIndex] = -1;
    setAodOccupant(A.AodCol, A.AodRow, SlmAtom);
    Locations[SlmAtom] = {AtomLocation::Layer::Aod, -1, A.AodCol, A.AodRow};
  } else {
    // AOD -> SLM.
    eraseAodOccupant(A.AodCol, A.AodRow);
    SlmOccupants[A.SlmIndex] = AodAtom;
    Locations[AodAtom] = {AtomLocation::Layer::Slm, A.SlmIndex, -1, -1};
  }
  ClustersValid = false;
  return Status::success();
}

Status FpqaDevice::applyShuttle(bool Row, const int *Indices,
                                const int32_t *OffsetsNm, size_t Count) {
  std::vector<int32_t> &Coords = Row ? RowY : ColumnX;
  const char *What = Row ? "row" : "column";
  if (Count == 0)
    return Status::error("@shuttle moves no rows/columns");
  // The moved set must be pairwise distinct; requiring strictly ascending
  // indices makes overlap an O(1)-per-element check and fixes a canonical
  // spelling for the step.
  for (size_t I = 0; I < Count; ++I) {
    if (Indices[I] < 0 || static_cast<size_t>(Indices[I]) >= Coords.size())
      return Status::error(std::string("@shuttle: ") + What +
                           " index out of range");
    if (I > 0 && Indices[I] <= Indices[I - 1])
      return Status::error(std::string("@shuttle: ") + What +
                           " indices must be strictly ascending (distinct "
                           "traps per AOD step)");
  }
  // Moving traps may not cross or crowd (Table 1 pre-condition: no move
  // over another row/column): with both the start and end configurations
  // ascending, the linear interpolation in between stays ordered, so
  // validating the post-move coordinate array suffices. Only neighbours of
  // a moved index can newly violate spacing.
  auto PosAfter = [&](int Index, size_t &Cursor) {
    // Indices ascend and the callers below query ascending neighbours, so
    // a monotone cursor over the moved set keeps this O(1) amortised.
    while (Cursor < Count && Indices[Cursor] < Index)
      ++Cursor;
    if (Cursor < Count && Indices[Cursor] == Index)
      return int64_t{Coords[Index]} + OffsetsNm[Cursor];
    return int64_t{Coords[Index]};
  };
  size_t LeftCursor = 0, RightCursor = 0;
  for (size_t I = 0; I < Count; ++I) {
    int Index = Indices[I];
    int64_t NewPos = int64_t{Coords[Index]} + OffsetsNm[I];
    if (!inCoordinateRange(NewPos))
      return Status::error(std::string("@shuttle: ") + What +
                           " would leave the +-1e6 um coordinate range");
    if (Index > 0 &&
        NewPos - PosAfter(Index - 1, LeftCursor) < Params.MinAodSeparationNm)
      return Status::error(std::string("@shuttle: ") + What +
                           " would cross or crowd its left/lower neighbour");
    if (static_cast<size_t>(Index) + 1 < Coords.size() &&
        PosAfter(Index + 1, RightCursor) - NewPos < Params.MinAodSeparationNm)
      return Status::error(std::string("@shuttle: ") + What +
                           " would cross or crowd its right/upper neighbour");
  }
  // Commit. Only the atoms riding the moved rows/columns change position,
  // so shuttles of empty rows/columns keep the memoised clusters.
  for (size_t I = 0; I < Count; ++I) {
    int Index = Indices[I];
    if (!(Row ? RowAtoms[Index] : ColumnAtoms[Index]).empty())
      ClustersValid = false;
    Coords[Index] += OffsetsNm[I];
  }
  return Status::success();
}

Status FpqaDevice::applyRaman(const Annotation &A) {
  if (A.Kind == AnnotationKind::RamanGlobal)
    return Status::success();
  if (A.Qubit < 0 || static_cast<size_t>(A.Qubit) >= Locations.size() ||
      Locations[A.Qubit].Kind == AtomLocation::Layer::Unbound)
    return Status::error("@raman local: qubit " + std::to_string(A.Qubit) +
                         " is not bound to an atom");
  return Status::success();
}

int FpqaDevice::aodOccupant(int Col, int Row) const {
  for (const auto &[R, Q] : ColumnAtoms[Col])
    if (R == Row)
      return Q;
  return -1;
}

void FpqaDevice::setAodOccupant(int Col, int Row, int Qubit) {
  ColumnAtoms[Col].push_back({Row, Qubit});
  RowSlot[Qubit] = static_cast<int>(RowAtoms[Row].size());
  RowAtoms[Row].push_back({Col, Qubit});
}

void FpqaDevice::eraseAodOccupant(int Col, int Row) {
  // Column side: at most one entry per AOD row of this column.
  std::vector<std::pair<int, int>> &ColList = ColumnAtoms[Col];
  int Qubit = -1;
  for (auto It = ColList.begin(); It != ColList.end(); ++It)
    if (It->first == Row) {
      Qubit = It->second;
      *It = ColList.back();
      ColList.pop_back();
      break;
    }
  assert(Qubit != -1 && "occupant missing from its column list");
  if (Qubit < 0)
    return;
  // Row side: the row list holds every occupied column (all AOD atoms in
  // the single-row geometry), so swap-pop through the atom's remembered
  // slot index instead of scanning.
  std::vector<std::pair<int, int>> &RowList = RowAtoms[Row];
  int Slot = RowSlot[Qubit];
  assert(Slot >= 0 && static_cast<size_t>(Slot) < RowList.size() &&
         RowList[Slot].second == Qubit &&
         "row-slot index out of sync with the row occupant list");
  RowList[Slot] = RowList.back();
  RowSlot[RowList[Slot].second] = Slot;
  RowList.pop_back();
  RowSlot[Qubit] = -1;
}

Vec2 FpqaDevice::qubitPosition(int Qubit) const {
  const AtomLocation &Loc = location(Qubit);
  assert(Loc.Kind != AtomLocation::Layer::Unbound &&
         "querying position of an unbound qubit");
  if (Loc.Kind == AtomLocation::Layer::Slm)
    return SlmTraps[Loc.SlmIndex];
  return Vec2{ColumnX[Loc.AodCol], RowY[Loc.AodRow]};
}

bool FpqaDevice::isBound(int Qubit) const {
  return Qubit >= 0 && static_cast<size_t>(Qubit) < Locations.size() &&
         Locations[Qubit].Kind != AtomLocation::Layer::Unbound;
}

size_t FpqaDevice::countAtomsSlow() const {
  size_t N = 0;
  for (const AtomLocation &L : Locations)
    if (L.Kind != AtomLocation::Layer::Unbound)
      ++N;
  return N;
}

size_t FpqaDevice::numAtoms() const {
  assert(BoundAtoms == countAtomsSlow() && "bound-atom counter out of sync");
  return BoundAtoms;
}

const AtomLocation &FpqaDevice::location(int Qubit) const {
  assert(Qubit >= 0 && static_cast<size_t>(Qubit) < Locations.size() &&
         "qubit id out of range");
  return Locations[Qubit];
}

Status FpqaDevice::validateCluster(const std::vector<int> &Members) const {
  auto Describe = [&]() {
    std::string Out;
    for (int Q : Members) {
      Vec2 P = qubitPosition(Q);
      Out += " q[" + std::to_string(Q) + "]@(" + std::to_string(P.X) + "," +
             std::to_string(P.Y) + ")";
    }
    return Out;
  };
  if (Members.size() > 3)
    return Status::error(
        "@rydberg: interaction cluster with more than three atoms:" +
        Describe());
  // Every pair in the cluster must interact directly (no chains), and
  // 3-atom clusters must be equidistant for the CCZ interpretation.
  int64_t MinD2 = INT64_MAX, MaxD2 = 0;
  for (size_t I = 0; I < Members.size(); ++I)
    for (size_t J = I + 1; J < Members.size(); ++J) {
      int64_t D2 = distanceSquared(qubitPosition(Members[I]),
                                   qubitPosition(Members[J]));
      MinD2 = std::min(MinD2, D2);
      MaxD2 = std::max(MaxD2, D2);
    }
  if (MaxD2 > squared(Params.RydbergRadiusNm))
    return Status::error("@rydberg: chained interaction cluster (atoms not "
                         "mutually within the Rydberg radius):" +
                         Describe());
  if (Members.size() == 3 &&
      std::sqrt(static_cast<double>(MaxD2)) -
              std::sqrt(static_cast<double>(MinD2)) >
          Params.EquidistanceToleranceNm)
    return Status::error("@rydberg: 3-atom cluster is not equidistant:" +
                         Describe());
  return Status::success();
}

Expected<const std::vector<RydbergCluster> *>
FpqaDevice::rydbergClustersRef() const {
  if (!ClustersValid)
    if (Status S = computeClusters())
      return Expected<const std::vector<RydbergCluster> *>(S);
  return &ClusterCache;
}

Status FpqaDevice::computeClusters() const {
  // The bound atoms in ascending qubit order; a dense index I stands for
  // AtomQubits[I] from here on.
  AtomQubits.clear();
  AtomPositions.clear();
  for (size_t Q = 0; Q < Locations.size(); ++Q)
    if (Locations[Q].Kind != AtomLocation::Layer::Unbound) {
      AtomQubits.push_back(static_cast<int>(Q));
      AtomPositions.push_back(qubitPosition(static_cast<int>(Q)));
    }
  size_t N = AtomQubits.size();
  // Union-find over the proximity graph; edges come from the 3x3 cell
  // neighbourhood (cells are one Rydberg radius wide).
  CellTable Cells(AtomPositions, Params.RydbergRadiusNm);
  std::vector<int> Parent(N);
  for (size_t I = 0; I < N; ++I)
    Parent[I] = static_cast<int>(I);
  auto Find = [&](int X) {
    while (Parent[X] != X)
      X = Parent[X] = Parent[Parent[X]];
    return X;
  };
  const int64_t Radius2 = squared(Params.RydbergRadiusNm);
  for (size_t I = 0; I < N; ++I)
    Cells.forNeighbours(AtomPositions[I], [&](int J) {
      if (static_cast<size_t>(J) > I && // consider each pair once
          distanceSquared(AtomPositions[I], AtomPositions[J]) <= Radius2)
        Parent[Find(static_cast<int>(I))] = Find(J);
    });

  // GroupSlot[R] holds minus root R's member count, then its cluster's
  // index once it has one. Clusters of two or more atoms form in order of
  // their smallest member, members ascending, which (clusters being
  // disjoint) equals the reference implementation's final lexicographic
  // cluster order.
  std::vector<int> GroupSlot(N, 0);
  for (size_t I = 0; I < N; ++I)
    --GroupSlot[Find(static_cast<int>(I))];
  std::vector<RydbergCluster> Clusters;
  for (size_t I = 0; I < N; ++I) {
    int &Slot = GroupSlot[Find(static_cast<int>(I))];
    if (Slot == -1) // a lone atom
      continue;
    if (Slot < -1) {
      Slot = static_cast<int>(Clusters.size());
      Clusters.emplace_back();
    }
    Clusters[Slot].Qubits.push_back(AtomQubits[I]);
  }
  for (const RydbergCluster &C : Clusters)
    if (Status S = validateCluster(C.Qubits))
      return S;
  ClusterCache = std::move(Clusters);
  ClustersValid = true;
  return Status::success();
}
