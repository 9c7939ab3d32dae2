//===- qasm/Program.h - Parsed wQASM program representation ----*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// In-memory form of a (w)QASM file: a flat qubit register, a statement
/// list, and the FPQA annotations attached to each statement (paper §4.2:
/// annotations specify the FPQA steps executed before the following
/// OpenQASM statement). Ignoring the annotations yields a plain OpenQASM
/// program that can be retargeted to other architectures.
///
/// The program is flat. Every annotation sits in one array in execution
/// order, the order the device runs the pulse stream in, and a statement
/// is its gate plus the end of its range: statement S owns
/// Annotations[end(S-1), end(S)), and the annotations from the last
/// statement's end on are the trailing ones. A statement is 48 bytes and
/// an annotation 64; of the annotation forms only @slm, @aod and
/// @shuttle rows|columns own a heap payload (see qasm/Annotation.h), so a
/// copy of a program allocates its two arrays plus one block per such
/// annotation.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_QASM_PROGRAM_H
#define WEAVER_QASM_PROGRAM_H

#include "circuit/Circuit.h"
#include "qasm/Annotation.h"
#include "support/Span.h"

#include <string>
#include <vector>

namespace weaver {
namespace qasm {

/// One OpenQASM statement (a gate, measurement or barrier); the wQASM
/// annotations that precede it are its range of WqasmProgram::Annotations.
struct GateStatement {
  circuit::Gate Gate;
  /// One past the statement's last annotation. Ends never decrease and
  /// never exceed the annotation count.
  size_t AnnotationsEnd = 0;
};

/// A parsed wQASM (or plain OpenQASM) program over one flat qubit register.
struct WqasmProgram {
  std::string Version = "3.0";
  int NumQubits = 0;
  int NumBits = 0;
  std::vector<GateStatement> Statements;
  /// Every annotation in execution order (see the file comment).
  std::vector<Annotation> Annotations;

  /// Appends \p G as a statement owning every annotation appended since
  /// the previous statement.
  void addStatement(const circuit::Gate &G) {
    Statements.push_back({G, Annotations.size()});
  }

  /// Index of statement \p S's first annotation; for S == the statement
  /// count, the first trailing one.
  size_t annotationsBegin(size_t S) const {
    return S == 0 ? 0 : Statements[S - 1].AnnotationsEnd;
  }
  /// The annotations that precede statement \p S.
  Span<const Annotation> annotationsOf(size_t S) const {
    size_t Begin = annotationsBegin(S);
    return {Annotations.data() + Begin, Statements[S].AnnotationsEnd - Begin};
  }
  /// The annotations after the last statement (rare; kept for round-trip
  /// fidelity).
  Span<const Annotation> trailingAnnotations() const {
    size_t Begin = annotationsBegin(Statements.size());
    return {Annotations.data() + Begin, Annotations.size() - Begin};
  }

  /// Drops the annotations and returns the logical circuit — the
  /// "treat wQASM like regular OpenQASM" path of §4.2.
  circuit::Circuit toCircuit() const;

  /// Wraps a circuit into an annotation-free program.
  static WqasmProgram fromCircuit(const circuit::Circuit &C);

  size_t numAnnotations() const { return Annotations.size(); }
};

} // namespace qasm
} // namespace weaver

#endif // WEAVER_QASM_PROGRAM_H
