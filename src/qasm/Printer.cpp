//===- qasm/Printer.cpp - OpenQASM / wQASM emission -----------------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "qasm/Printer.h"

#include "support/StringUtils.h"

using namespace weaver;
using namespace weaver::qasm;
using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;

namespace {

void printHeader(std::string &Out, const std::string &Version, int NumQubits,
                 int NumBits) {
  appendAll(Out, "OPENQASM ", Version, ";\n");
  if (NumQubits > 0)
    appendAll(Out, "qubit[", NumQubits, "] q;\n");
  if (NumBits > 0)
    appendAll(Out, "bit[", NumBits, "] c;\n");
}

} // namespace

std::string qasm::printOpenQasm(const Circuit &C) {
  std::string Out;
  printHeader(Out, "3.0", C.numQubits(),
              static_cast<int>(C.count(GateKind::Measure)));
  for (const Gate &G : C) {
    circuit::appendGate(Out, G);
    Out += ";\n";
  }
  return Out;
}

std::string qasm::printWqasm(const WqasmProgram &Program) {
  std::string Out;
  printHeader(Out, Program.Version, Program.NumQubits, Program.NumBits);
  for (const GateStatement &S : Program.Statements) {
    for (const Annotation &A : S.Annotations) {
      appendAnnotation(Out, A);
      Out += '\n';
    }
    circuit::appendGate(Out, S.Gate);
    Out += ";\n";
  }
  for (const Annotation &A : Program.TrailingAnnotations) {
    appendAnnotation(Out, A);
    Out += '\n';
  }
  return Out;
}
