//===- qasm/Annotation.h - wQASM FPQA annotations --------------*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The wQASM annotation extension of OpenQASM (paper §4, Fig. 4, Table 1).
/// Annotations prefix an OpenQASM statement and describe the FPQA-specific
/// steps (trap setup, atom motion, pulses) executed before that statement.
///
/// Concrete syntax accepted/emitted by this project:
/// \code
///   @slm [(0, 0), (5, 0), (10, 0)]
///   @aod [0, 5] [0, 5]
///   @bind q[3] slm 2
///   @bind q[4] aod 0 1
///   @transfer 2 (0, 1)
///   @shuttle row 0 7.5
///   @shuttle column 1 -2.5
///   @shuttle columns [0, 2, 3] [5, -1.5, 2]
///   @shuttle rows [0, 1] [2, 2]
///   @raman global 0 1.5707963 0
///   @raman local q[3] 0 1.5707963 0
///   @rydberg
/// \endcode
///
/// Lengths (trap coordinates, AOD positions, shuttle offsets) are held as
/// whole nanometres and written as micrometres with at most three
/// fractional digits (TextWriter::microns / parseMicrons), so "7.5" is 7500 nm
/// exactly. Raman angles stay doubles in appendDouble's %.17g form.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_QASM_ANNOTATION_H
#define WEAVER_QASM_ANNOTATION_H

#include "support/Geometry.h"
#include "support/TextWriter.h"

#include <string>
#include <vector>

namespace weaver {
namespace qasm {

/// Discriminates the wQASM annotation forms of Table 1.
enum class AnnotationKind {
  Slm,         ///< @slm — initialise the fixed trap layer
  Aod,         ///< @aod — initialise the reconfigurable trap grid
  Bind,        ///< @bind — tie a trap to a qubit id
  Transfer,    ///< @transfer — move an atom between SLM and AOD layers
  Shuttle,     ///< @shuttle — move an AOD row/column by an offset
  /// @shuttle rows/columns — move a set of pairwise-distinct AOD
  /// rows/columns simultaneously in one AOD step (Algorithm 2's parallel
  /// shuttle sets). Order along the axis must be preserved: simultaneous
  /// traps cannot cross, so the post-move coordinates have to remain
  /// ascending with the minimum AOD separation.
  ShuttleParallel,
  RamanGlobal, ///< @raman global — rotate every qubit
  RamanLocal,  ///< @raman local — rotate one qubit
  Rydberg,     ///< @rydberg — global entangling pulse (CZ / CCZ)
};

/// Returns the annotation keyword without '@' (e.g. "shuttle").
const char *annotationKindName(AnnotationKind Kind);

/// One parsed/constructed wQASM annotation. A single struct carries the
/// union of the argument fields; which fields are meaningful depends on
/// \c Kind (see each field's comment).
struct Annotation {
  AnnotationKind Kind = AnnotationKind::Rydberg;

  /// @slm: trap coordinates (nm).
  std::vector<Vec2> TrapPositions;

  /// @aod: column x-coordinates and row y-coordinates (nm).
  std::vector<int32_t> AodXs;
  std::vector<int32_t> AodYs;

  /// @bind / @raman local: flat qubit index (printer renders q[Qubit]).
  int Qubit = -1;

  /// @bind: true when binding to an SLM trap, false for an AOD trap.
  bool BindToSlm = true;

  /// @bind (slm) / @transfer: SLM trap index.
  int SlmIndex = -1;

  /// @bind (aod) / @transfer: AOD column and row indices.
  int AodCol = -1;
  int AodRow = -1;

  /// @shuttle: true to move a row (set), false for a column (set).
  bool ShuttleRow = true;

  /// @shuttle: row/column index.
  int ShuttleIndex = -1;

  /// @shuttle: displacement (nm).
  int32_t Offset = 0;

  /// @shuttle rows/columns: moved indices (strictly ascending) and the
  /// matching per-index displacements (nm).
  std::vector<int> ShuttleIndices;
  std::vector<int32_t> ShuttleOffsets;

  /// @raman: rotation angles around the x, y and z axes (radians).
  double AngleX = 0;
  double AngleY = 0;
  double AngleZ = 0;

  /// Renders the annotation in the concrete syntax above (appendAnnotation).
  std::string str() const;

  // --- Named constructors for each form -------------------------------
  // Lengths are nanometres; the deleted double overload keeps a
  // micrometre literal such as 3.5 from truncating unnoticed.

  static Annotation slm(std::vector<Vec2> Traps);
  static Annotation aod(std::vector<int32_t> Xs, std::vector<int32_t> Ys);
  static Annotation bindSlm(int Qubit, int SlmIndex);
  static Annotation bindAod(int Qubit, int Col, int Row);
  static Annotation transfer(int SlmIndex, int Col, int Row);
  static Annotation shuttle(bool Row, int Index, int32_t OffsetNm);
  static Annotation shuttle(bool Row, int Index, double) = delete;
  static Annotation shuttleParallel(bool Rows, std::vector<int> Indices,
                                    std::vector<int32_t> OffsetsNm);
  static Annotation ramanGlobal(double X, double Y, double Z);
  static Annotation ramanLocal(int Qubit, double X, double Y, double Z);
  static Annotation rydberg();
};

/// Writes \p A in the concrete syntax above, with no line terminator. The
/// one annotation renderer: printWqasm and Annotation::str() use it.
void appendAnnotation(TextWriter &W, const Annotation &A);

} // namespace qasm
} // namespace weaver

#endif // WEAVER_QASM_ANNOTATION_H
