//===- oq2/Export.cpp - Circuit to OpenQASM 2 text export -----------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "oq2/Export.h"

#include "support/TextWriter.h"

using namespace weaver;
using namespace weaver::circuit;

std::string oq2::printOpenQasm2(const Circuit &C) {
  return TextWriter::render([&](TextWriter &W) {
    W << "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[" << C.numQubits()
      << "];\n";
    if (C.count(GateKind::Measure) > 0)
      W << "creg c[" << C.numQubits() << "];\n";
    for (const Gate &G : C) {
      if (G.kind() == GateKind::Barrier) {
        W << "barrier q;\n";
        continue;
      }
      if (G.kind() == GateKind::Measure) {
        W << "measure q[" << G.qubit(0) << "] -> c[" << G.qubit(0) << "];\n";
        continue;
      }
      W << gateName(G.kind());
      for (unsigned I = 0, E = G.numParams(); I < E; ++I)
        W << (I ? "," : "(") << G.param(I);
      if (G.numParams() > 0)
        W << ')';
      for (unsigned I = 0, E = G.numQubits(); I < E; ++I)
        W << (I ? ",q[" : " q[") << G.qubit(I) << ']';
      W << ";\n";
    }
  });
}
