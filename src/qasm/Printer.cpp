//===- qasm/Printer.cpp - OpenQASM / wQASM emission -----------------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "qasm/Printer.h"

#include "support/TextWriter.h"

using namespace weaver;
using namespace weaver::qasm;
using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;

namespace {

void printHeader(TextWriter &W, const std::string &Version, int NumQubits,
                 int NumBits) {
  W << "OPENQASM " << Version << ";\n";
  if (NumQubits > 0)
    W << "qubit[" << NumQubits << "] q;\n";
  if (NumBits > 0)
    W << "bit[" << NumBits << "] c;\n";
}

} // namespace

std::string qasm::printOpenQasm(const Circuit &C) {
  return TextWriter::render([&](TextWriter &W) {
    printHeader(W, "3.0", C.numQubits(),
                static_cast<int>(C.count(GateKind::Measure)));
    for (const Gate &G : C) {
      circuit::appendGate(W, G);
      W << ";\n";
    }
  });
}

std::string qasm::printWqasm(const WqasmProgram &Program) {
  return TextWriter::render([&](TextWriter &W) {
    printHeader(W, Program.Version, Program.NumQubits, Program.NumBits);
    for (const GateStatement &S : Program.Statements) {
      for (const Annotation &A : S.Annotations) {
        appendAnnotation(W, A);
        W << '\n';
      }
      circuit::appendGate(W, S.Gate);
      W << ";\n";
    }
    for (const Annotation &A : Program.TrailingAnnotations) {
      appendAnnotation(W, A);
      W << '\n';
    }
  });
}
