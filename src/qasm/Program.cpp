//===- qasm/Program.cpp - Parsed wQASM program representation ------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "qasm/Program.h"

using namespace weaver;
using namespace weaver::qasm;

circuit::Circuit WqasmProgram::toCircuit() const {
  circuit::Circuit C(NumQubits);
  for (const GateStatement &S : Statements)
    C.append(S.Gate);
  return C;
}

WqasmProgram WqasmProgram::fromCircuit(const circuit::Circuit &C) {
  WqasmProgram P;
  P.NumQubits = C.numQubits();
  P.NumBits = static_cast<int>(C.count(circuit::GateKind::Measure));
  for (const circuit::Gate &G : C)
    P.addStatement(G);
  return P;
}
