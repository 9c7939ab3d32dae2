//===- qasm/Annotation.cpp - wQASM FPQA annotations ------------------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "qasm/Annotation.h"

#include "support/TextWriter.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>

using namespace weaver;
using namespace weaver::qasm;

const char *qasm::annotationKindName(AnnotationKind Kind) {
  switch (Kind) {
  case AnnotationKind::Slm:
    return "slm";
  case AnnotationKind::Aod:
    return "aod";
  case AnnotationKind::Bind:
    return "bind";
  case AnnotationKind::Transfer:
    return "transfer";
  case AnnotationKind::Shuttle:
  case AnnotationKind::ShuttleParallel:
    return "shuttle";
  case AnnotationKind::RamanGlobal:
  case AnnotationKind::RamanLocal:
    return "raman";
  case AnnotationKind::Rydberg:
    return "rydberg";
  }
  return "";
}

namespace {

/// Writes " [v0, v1, ...]": lengths in micrometres, anything else (row and
/// column indices) as integers.
void writeList(TextWriter &W, Span<const int32_t> Vals, bool Lengths) {
  W << " [";
  for (size_t I = 0; I < Vals.size(); ++I) {
    if (I)
      W << ", ";
    if (Lengths)
      W.microns(Vals[I]);
    else
      W << Vals[I];
  }
  W << ']';
}

} // namespace

void qasm::appendAnnotation(TextWriter &W, const Annotation &A) {
  W << '@' << annotationKindName(A.Kind);
  switch (A.Kind) {
  case AnnotationKind::Slm:
    W << " [";
    for (size_t I = 0; I < A.numTraps(); ++I) {
      W << (I ? ", (" : "(");
      W.microns(A.trap(I).X) << ", ";
      W.microns(A.trap(I).Y) << ')';
    }
    W << ']';
    break;
  case AnnotationKind::Aod:
    writeList(W, A.aodXs(), /*Lengths=*/true);
    writeList(W, A.aodYs(), /*Lengths=*/true);
    break;
  case AnnotationKind::Bind:
    if (A.BindToSlm)
      W << " q[" << A.Qubit << "] slm " << A.SlmIndex;
    else
      W << " q[" << A.Qubit << "] aod " << A.AodCol << ' ' << A.AodRow;
    break;
  case AnnotationKind::Transfer:
    W << ' ' << A.SlmIndex << " (" << A.AodCol << ", " << A.AodRow << ')';
    break;
  case AnnotationKind::Shuttle:
    W << (A.ShuttleRow ? " row " : " column ") << A.ShuttleIndex << ' ';
    W.microns(A.Offset);
    break;
  case AnnotationKind::ShuttleParallel:
    W << (A.ShuttleRow ? " rows" : " columns");
    writeList(W, A.shuttleIndices(), /*Lengths=*/false);
    writeList(W, A.shuttleOffsets(), /*Lengths=*/true);
    break;
  case AnnotationKind::RamanGlobal:
    W << " global " << A.AngleX << ' ' << A.AngleY << ' ' << A.AngleZ;
    break;
  case AnnotationKind::RamanLocal:
    W << " local q[" << A.Qubit << "] " << A.AngleX << ' ' << A.AngleY << ' '
      << A.AngleZ;
    break;
  case AnnotationKind::Rydberg:
    break;
  }
}

std::string Annotation::str() const {
  return TextWriter::render(
      [this](TextWriter &W) { appendAnnotation(W, *this); });
}

Annotation::Payload::Payload(const int32_t *Values, size_t Size,
                             size_t Split) {
  assert(Split <= Size && "payload split past its end");
  if (Size == 0)
    return;
  Block.reset(new int32_t[HeaderWords + Size]);
  std::memcpy(Block.get(), &Size, sizeof(Size));
  std::memcpy(Block.get() + HeaderWords / 2, &Split, sizeof(Split));
  std::copy(Values, Values + Size, Block.get() + HeaderWords);
}

namespace {

/// \p First then \p Second as one payload of \p A.
void setTwoLists(Annotation &A, std::vector<int32_t> First,
                 const std::vector<int32_t> &Second) {
  size_t Split = First.size();
  First.insert(First.end(), Second.begin(), Second.end());
  A.setPayload(First.data(), First.size(), Split);
}

} // namespace

Annotation Annotation::slm(std::vector<Vec2> Traps) {
  Annotation A;
  A.Kind = AnnotationKind::Slm;
  std::vector<int32_t> Values;
  Values.reserve(2 * Traps.size());
  for (Vec2 P : Traps) {
    Values.push_back(P.X);
    Values.push_back(P.Y);
  }
  A.setPayload(Values.data(), Values.size());
  return A;
}

Annotation Annotation::aod(std::vector<int32_t> Xs, std::vector<int32_t> Ys) {
  Annotation A;
  A.Kind = AnnotationKind::Aod;
  setTwoLists(A, std::move(Xs), Ys);
  return A;
}

Annotation Annotation::bindSlm(int Qubit, int SlmIndex) {
  Annotation A;
  A.Kind = AnnotationKind::Bind;
  A.Qubit = Qubit;
  A.BindToSlm = true;
  A.SlmIndex = SlmIndex;
  return A;
}

Annotation Annotation::bindAod(int Qubit, int Col, int Row) {
  Annotation A;
  A.Kind = AnnotationKind::Bind;
  A.Qubit = Qubit;
  A.BindToSlm = false;
  A.AodCol = Col;
  A.AodRow = Row;
  return A;
}

Annotation Annotation::transfer(int SlmIndex, int Col, int Row) {
  Annotation A;
  A.Kind = AnnotationKind::Transfer;
  A.SlmIndex = SlmIndex;
  A.AodCol = Col;
  A.AodRow = Row;
  return A;
}

Annotation Annotation::shuttle(bool Row, int Index, int32_t OffsetNm) {
  Annotation A;
  A.Kind = AnnotationKind::Shuttle;
  A.ShuttleRow = Row;
  A.ShuttleIndex = Index;
  A.Offset = OffsetNm;
  return A;
}

Annotation Annotation::shuttleParallel(bool Rows, std::vector<int> Indices,
                                       std::vector<int32_t> OffsetsNm) {
  Annotation A;
  A.Kind = AnnotationKind::ShuttleParallel;
  A.ShuttleRow = Rows;
  setTwoLists(A, std::move(Indices), OffsetsNm);
  return A;
}

Annotation Annotation::ramanGlobal(double X, double Y, double Z) {
  Annotation A;
  A.Kind = AnnotationKind::RamanGlobal;
  A.AngleX = X;
  A.AngleY = Y;
  A.AngleZ = Z;
  return A;
}

Annotation Annotation::ramanLocal(int Qubit, double X, double Y, double Z) {
  Annotation A;
  A.Kind = AnnotationKind::RamanLocal;
  A.Qubit = Qubit;
  A.AngleX = X;
  A.AngleY = Y;
  A.AngleZ = Z;
  return A;
}

Annotation Annotation::rydberg() {
  Annotation A;
  A.Kind = AnnotationKind::Rydberg;
  return A;
}
