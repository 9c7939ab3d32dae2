//===- oq2/Export.cpp - Circuit to OpenQASM 2 text export -----------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "oq2/Export.h"

#include "support/StringUtils.h"

using namespace weaver;
using namespace weaver::circuit;

std::string oq2::printOpenQasm2(const Circuit &C) {
  std::string Out;
  Out += "OPENQASM 2.0;\n";
  Out += "include \"qelib1.inc\";\n";
  appendAll(Out, "qreg q[", C.numQubits(), "];\n");
  if (C.count(GateKind::Measure) > 0)
    appendAll(Out, "creg c[", C.numQubits(), "];\n");
  for (const Gate &G : C) {
    if (G.kind() == GateKind::Barrier) {
      Out += "barrier q;\n";
      continue;
    }
    if (G.kind() == GateKind::Measure) {
      appendAll(Out, "measure q[", G.qubit(0), "] -> c[", G.qubit(0), "];\n");
      continue;
    }
    Out += gateName(G.kind());
    for (unsigned I = 0, E = G.numParams(); I < E; ++I)
      appendAll(Out, I ? "," : "(", G.param(I));
    if (G.numParams() > 0)
      Out += ')';
    for (unsigned I = 0, E = G.numQubits(); I < E; ++I)
      appendAll(Out, I ? ",q[" : " q[", G.qubit(I), ']');
    Out += ";\n";
  }
  return Out;
}
