//===- qasm/Annotation.cpp - wQASM FPQA annotations ------------------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "qasm/Annotation.h"

#include "support/StringUtils.h"

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

/// Appends " [v0, v1, ...]": lengths in micrometres, anything else (row
/// and column indices) as integers.
void appendList(std::string &Out, const std::vector<int32_t> &Vals,
                bool Lengths) {
  Out += " [";
  for (size_t I = 0; I < Vals.size(); ++I) {
    if (I)
      Out += ", ";
    if (Lengths)
      appendMicrons(Out, Vals[I]);
    else
      appendInt(Out, Vals[I]);
  }
  Out += ']';
}

} // namespace

void qasm::appendAnnotation(std::string &Out, const Annotation &A) {
  appendAll(Out, '@', annotationKindName(A.Kind));
  switch (A.Kind) {
  case AnnotationKind::Slm:
    Out += " [";
    for (size_t I = 0; I < A.TrapPositions.size(); ++I) {
      Out += I ? ", (" : "(";
      appendMicrons(Out, A.TrapPositions[I].X);
      Out += ", ";
      appendMicrons(Out, A.TrapPositions[I].Y);
      Out += ')';
    }
    Out += ']';
    break;
  case AnnotationKind::Aod:
    appendList(Out, A.AodXs, /*Lengths=*/true);
    appendList(Out, A.AodYs, /*Lengths=*/true);
    break;
  case AnnotationKind::Bind:
    if (A.BindToSlm)
      appendAll(Out, " q[", A.Qubit, "] slm ", A.SlmIndex);
    else
      appendAll(Out, " q[", A.Qubit, "] aod ", A.AodCol, ' ', A.AodRow);
    break;
  case AnnotationKind::Transfer:
    appendAll(Out, ' ', A.SlmIndex, " (", A.AodCol, ", ", A.AodRow, ')');
    break;
  case AnnotationKind::Shuttle:
    appendAll(Out, A.ShuttleRow ? " row " : " column ", A.ShuttleIndex, ' ');
    appendMicrons(Out, A.Offset);
    break;
  case AnnotationKind::ShuttleParallel:
    Out += A.ShuttleRow ? " rows" : " columns";
    appendList(Out, A.ShuttleIndices, /*Lengths=*/false);
    appendList(Out, A.ShuttleOffsets, /*Lengths=*/true);
    break;
  case AnnotationKind::RamanGlobal:
    appendAll(Out, " global ", A.AngleX, ' ', A.AngleY, ' ', A.AngleZ);
    break;
  case AnnotationKind::RamanLocal:
    appendAll(Out, " local q[", A.Qubit, "] ", A.AngleX, ' ', A.AngleY, ' ',
              A.AngleZ);
    break;
  case AnnotationKind::Rydberg:
    break;
  }
}

std::string Annotation::str() const {
  std::string Out;
  appendAnnotation(Out, *this);
  return Out;
}

Annotation Annotation::slm(std::vector<Vec2> Traps) {
  Annotation A;
  A.Kind = AnnotationKind::Slm;
  A.TrapPositions = std::move(Traps);
  return A;
}

Annotation Annotation::aod(std::vector<int32_t> Xs, std::vector<int32_t> Ys) {
  Annotation A;
  A.Kind = AnnotationKind::Aod;
  A.AodXs = std::move(Xs);
  A.AodYs = std::move(Ys);
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
  A.ShuttleIndices = std::move(Indices);
  A.ShuttleOffsets = std::move(OffsetsNm);
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
