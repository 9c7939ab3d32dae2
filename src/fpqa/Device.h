//===- fpqa/Device.h - Checked FPQA device state machine -------*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Executable model of an FPQA: a fixed SLM trap layer, a reconfigurable
/// AOD row/column grid, and atoms bound to qubit ids. Every wQASM
/// annotation (Table 1) is applied through \c apply(), which validates the
/// instruction's pre-conditions (minimum trap spacing, AOD ordering, atom
/// occupancy, transfer distance) and performs its post-condition. This is
/// the same state machine the wChecker re-simulates to translate Rydberg
/// pulses back into logical gates (paper §6, Fig. 9).
///
/// Positions are whole nanometres bounded to +-MaxCoordinateNm: AOD
/// spacing checks are integer compares, the radius, transfer-distance and
/// SLM-separation checks compare exact int64_t squared distances, and only
/// the 3-atom equidistance check takes square roots (of exact squares). A
/// shuttle that would leave the coordinate bound is rejected.
///
/// Proximity queries (the Rydberg clusters, the @slm separation check)
/// bucket their points into a flat open-addressing table of square cells,
/// one radius (or separation) wide, built per query: a close pair sits in
/// the same or an 8-neighbouring cell, so a query inspects O(points) pairs
/// instead of all O(points^2). The cluster query visits every bound atom
/// anyway, so the rebuild costs no more than an incremental index. Moves
/// only invalidate the memoised clusters: an atom binds, transfers, or
/// rides a moved row or column.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_FPQA_DEVICE_H
#define WEAVER_FPQA_DEVICE_H

#include "fpqa/HardwareParams.h"
#include "qasm/Annotation.h"
#include "support/Geometry.h"
#include "support/Status.h"

#include <vector>

namespace weaver {
namespace fpqa {

/// Where an atom (identified by its bound qubit id) currently sits.
struct AtomLocation {
  enum class Layer { Unbound, Slm, Aod };
  Layer Kind = Layer::Unbound;
  int SlmIndex = -1; ///< valid when Kind == Slm
  int AodCol = -1;   ///< valid when Kind == Aod
  int AodRow = -1;   ///< valid when Kind == Aod
};

/// A set of mutually interacting atoms under one Rydberg pulse.
struct RydbergCluster {
  std::vector<int> Qubits; ///< 2 or 3 qubit ids
};

/// The FPQA state machine. See file comment.
class FpqaDevice {
public:
  explicit FpqaDevice(const HardwareParams &Params = HardwareParams())
      : Params(Params) {}

  const HardwareParams &params() const { return Params; }

  /// Applies one wQASM annotation; returns an error (state unchanged) when
  /// a pre-condition of Table 1 is violated.
  Status apply(const qasm::Annotation &A);

  /// Current position of the atom bound to \p Qubit. Requires the qubit to
  /// be bound and placed.
  Vec2 qubitPosition(int Qubit) const;

  /// Returns true if \p Qubit is bound to a trap.
  bool isBound(int Qubit) const;

  /// Number of bound atoms. O(1): a counter maintained by bind, checked
  /// against the full scan in debug builds.
  size_t numAtoms() const;

  /// Computes the interaction clusters a global Rydberg pulse would act on:
  /// connected components of the "closer than RydbergRadius" graph with at
  /// least two atoms. Fails when a cluster exceeds three atoms or a 3-atom
  /// cluster is not (approximately) equidistant — the digital-computation
  /// validity conditions of §6/§7. Buckets the atoms into cells (see file
  /// comment) and memoises the (successful) result until an atom moves;
  /// the returned pointer is to that memo, valid until the next position
  /// change.
  Expected<const std::vector<RydbergCluster> *> rydbergClustersRef() const;

  // --- Introspection used by codegen and tests -------------------------
  size_t numSlmTraps() const { return SlmTraps.size(); }
  Vec2 slmTrap(int Index) const { return SlmTraps[Index]; }
  int slmOccupant(int Index) const { return SlmOccupants[Index]; }
  size_t numAodColumns() const { return ColumnX.size(); }
  size_t numAodRows() const { return RowY.size(); }
  int32_t columnX(int Col) const { return ColumnX[Col]; }
  int32_t rowY(int Row) const { return RowY[Row]; }
  const AtomLocation &location(int Qubit) const;

private:
  Status applySlm(const qasm::Annotation &A);
  Status applyAod(const qasm::Annotation &A);
  Status applyBind(const qasm::Annotation &A);
  Status applyTransfer(const qasm::Annotation &A);
  /// The one shuttle validator: moves \p Count rows (\p Row) or columns,
  /// \p Indices[i] by \p OffsetsNm[i], as one AOD step. A single @shuttle
  /// is the one-element step, so both forms accept and reject exactly the
  /// same moves.
  Status applyShuttle(bool Row, const int *Indices, const int32_t *OffsetsNm,
                      size_t Count);
  Status applyRaman(const qasm::Annotation &A);

  int aodOccupant(int Col, int Row) const;
  void setAodOccupant(int Col, int Row, int Qubit);
  void eraseAodOccupant(int Col, int Row);

  /// Validates one candidate cluster: 2..3 members, mutually within the
  /// radius, 3-atom clusters equidistant. \p Members hold qubit ids in
  /// ascending order.
  Status validateCluster(const std::vector<int> &Members) const;

  /// Recomputes the cluster decomposition into ClusterCache and sets
  /// ClustersValid; the error status (if any) is returned without
  /// materialising a result copy.
  Status computeClusters() const;

  size_t countAtomsSlow() const;

  HardwareParams Params;
  std::vector<Vec2> SlmTraps;
  std::vector<int> SlmOccupants; ///< qubit id or -1
  std::vector<int32_t> ColumnX;
  std::vector<int32_t> RowY;
  /// Dense per-column / per-row occupant lists ((row, qubit) and
  /// (col, qubit) pairs), sized at @aod initialisation. A shuttle touches
  /// only the atoms riding the moved column/row. Column lists hold at
  /// most one entry per row (a single row in the production geometry);
  /// row lists hold one entry per occupied column, so row-side removal
  /// goes through RowSlot (each AOD atom's index into its row list) for
  /// an O(1) swap-pop — no tree maps or linear scans on the
  /// per-instruction path.
  std::vector<std::vector<std::pair<int, int>>> ColumnAtoms;
  std::vector<std::vector<std::pair<int, int>>> RowAtoms;
  std::vector<int> RowSlot; ///< per qubit, valid while the atom is on AOD
  std::vector<AtomLocation> Locations; ///< indexed by qubit id
  size_t BoundAtoms = 0;

  /// computeClusters' scratch, reused across queries: the bound atoms in
  /// ascending qubit order and their positions.
  mutable std::vector<int> AtomQubits;
  mutable std::vector<Vec2> AtomPositions;
  mutable std::vector<RydbergCluster> ClusterCache;
  mutable bool ClustersValid = false;
};

} // namespace fpqa
} // namespace weaver

#endif // WEAVER_FPQA_DEVICE_H
