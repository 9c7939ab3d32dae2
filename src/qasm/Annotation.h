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
/// Memory layout. An Annotation is 64 bytes: the kind, the scalar fields
/// and an 8-byte payload handle. Only the three list-carrying forms own a
/// payload, one heap block of int32 values laid out per kind:
///   - @slm: the traps as x,y pairs (nm), so its length is even;
///   - @aod: the column xs, then the row ys (nm);
///   - @shuttle rows|columns: the moved indices, then their offsets (nm).
/// The block also records its length and where the second list starts
/// (payloadSplit()). Reads go through the per-kind accessors, which are
/// empty for any other kind. Every other form, and an empty list form,
/// allocates nothing, so copying a program costs one block per list form.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_QASM_ANNOTATION_H
#define WEAVER_QASM_ANNOTATION_H

#include "support/Geometry.h"
#include "support/Span.h"
#include "support/TextWriter.h"

#include <cassert>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

namespace weaver {
namespace qasm {

/// Discriminates the wQASM annotation forms of Table 1.
enum class AnnotationKind : uint8_t {
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

/// One parsed/constructed wQASM annotation: the kind, the scalar fields
/// (which are meaningful depends on \c Kind, see each field's comment) and
/// the list payload described in the file comment.
struct Annotation {
  AnnotationKind Kind = AnnotationKind::Rydberg;

  /// @bind: true when binding to an SLM trap, false for an AOD trap.
  bool BindToSlm = true;

  /// @shuttle: true to move a row (set), false for a column (set).
  bool ShuttleRow = true;

  /// @bind / @raman local: flat qubit index (printer renders q[Qubit]).
  int Qubit = -1;

  /// @bind (slm) / @transfer: SLM trap index.
  int SlmIndex = -1;

  /// @bind (aod) / @transfer: AOD column and row indices.
  int AodCol = -1;
  int AodRow = -1;

  /// @shuttle: row/column index.
  int ShuttleIndex = -1;

  /// @shuttle: displacement (nm).
  int32_t Offset = 0;

  /// @raman: rotation angles around the x, y and z axes (radians).
  double AngleX = 0;
  double AngleY = 0;
  double AngleZ = 0;

  // --- Payload accessors (empty for every other kind) ------------------

  /// @slm: the number of traps, and trap \p I (nm).
  size_t numTraps() const {
    return Kind == AnnotationKind::Slm ? Values.size() / 2 : 0;
  }
  Vec2 trap(size_t I) const {
    assert(I < numTraps() && "trap index out of range");
    return {Values.data()[2 * I], Values.data()[2 * I + 1]};
  }
  /// @aod: column x-coordinates and row y-coordinates (nm).
  Span<const int32_t> aodXs() const { return first(AnnotationKind::Aod); }
  Span<const int32_t> aodYs() const { return second(AnnotationKind::Aod); }
  /// @shuttle rows/columns: the moved indices (strictly ascending in a
  /// valid program) and the matching per-index displacements (nm).
  Span<const int32_t> shuttleIndices() const {
    return first(AnnotationKind::ShuttleParallel);
  }
  Span<const int32_t> shuttleOffsets() const {
    return second(AnnotationKind::ShuttleParallel);
  }
  /// Every payload value, whatever the kind, and where its second list
  /// starts: the raw layout, for invariant checks.
  Span<const int32_t> payload() const { return Values.all(); }
  size_t payloadSplit() const { return Values.split(); }

  /// Replaces the payload by \p Size values laid out for Kind as the file
  /// comment describes, the second list starting at \p Split. Producers
  /// that build a payload in place (the parser, the emitter, the snapshot
  /// reader) use it; the named constructors below are built on it.
  void setPayload(const int32_t *Data, size_t Size, size_t Split = 0) {
    Values = Payload(Data, Size, Split);
  }

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

private:
  /// An annotation's list values in one owned heap block that also holds
  /// their count and the start of the second list; null when empty (see the
  /// file comment).
  class Payload {
  public:
    Payload() = default;
    /// Copies \p Size values; the second list starts at \p Split <= Size.
    Payload(const int32_t *Values, size_t Size, size_t Split);
    Payload(const Payload &Other)
        : Payload(Other.data(), Other.size(), Other.split()) {}
    Payload(Payload &&) noexcept = default;
    Payload &operator=(const Payload &Other) {
      if (this != &Other)
        *this = Payload(Other);
      return *this;
    }
    Payload &operator=(Payload &&) noexcept = default;

    size_t size() const { return Block ? header(0) : 0; }
    size_t split() const { return Block ? header(1) : 0; }
    const int32_t *data() const {
      return Block ? Block.get() + HeaderWords : nullptr;
    }
    /// All values, those before split(), and those from it on.
    Span<const int32_t> all() const { return {data(), size()}; }
    Span<const int32_t> head() const { return {data(), split()}; }
    Span<const int32_t> tail() const {
      return Block ? Span<const int32_t>(data() + split(), size() - split())
                   : Span<const int32_t>();
    }

  private:
    /// The size and the split, each a size_t, occupy the block's first
    /// words; the values follow.
    static constexpr size_t HeaderWords = 2 * sizeof(size_t) / sizeof(int32_t);
    size_t header(size_t I) const {
      size_t V;
      std::memcpy(&V, Block.get() + I * HeaderWords / 2, sizeof(V));
      return V;
    }

    std::unique_ptr<int32_t[]> Block;
  };

  Span<const int32_t> first(AnnotationKind Of) const {
    return Kind == Of ? Values.head() : Span<const int32_t>();
  }
  Span<const int32_t> second(AnnotationKind Of) const {
    return Kind == Of ? Values.tail() : Span<const int32_t>();
  }

  Payload Values;
};

/// Writes \p A in the concrete syntax above, with no line terminator. The
/// one annotation renderer: printWqasm and Annotation::str() use it.
void appendAnnotation(TextWriter &W, const Annotation &A);

} // namespace qasm
} // namespace weaver

#endif // WEAVER_QASM_ANNOTATION_H
