//===- circuit/Circuit.cpp - Quantum circuit container -------------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "circuit/Circuit.h"

using namespace weaver;
using namespace weaver::circuit;

void Circuit::append(const Gate &G) {
  for (unsigned I = 0, E = G.numQubits(); I < E; ++I) {
    assert(G.qubit(I) >= 0 && G.qubit(I) < QubitCount &&
           "gate operand outside the qubit register");
    for (unsigned J = I + 1; J < E; ++J)
      assert(G.qubit(I) != G.qubit(J) && "duplicate qubit operand");
  }
  Gates.push_back(G);
}

void Circuit::appendCircuit(const Circuit &Other) {
  assert(Other.QubitCount <= QubitCount &&
         "appended circuit uses more qubits than the register holds");
  for (const Gate &G : Other.Gates)
    append(G);
}

CircuitStats Circuit::stats() const {
  CircuitStats S;
  std::vector<size_t> QubitDepth(QubitCount, 0);
  size_t BarrierFloor = 0;
  for (const Gate &G : Gates) {
    S.CountByKind[static_cast<unsigned>(G.kind())]++;
    if (G.kind() == GateKind::Barrier) {
      // A barrier raises the floor for every qubit to the current maximum.
      for (size_t D : QubitDepth)
        BarrierFloor = std::max(BarrierFloor, D);
      continue;
    }
    if (G.kind() == GateKind::Measure)
      continue;
    switch (G.numQubits()) {
    case 1:
      S.OneQubitGates++;
      break;
    case 2:
      S.TwoQubitGates++;
      break;
    case 3:
      S.ThreeQubitGates++;
      break;
    default:
      break;
    }
    S.TotalGates++;
    size_t Level = BarrierFloor;
    for (unsigned I = 0, E = G.numQubits(); I < E; ++I)
      Level = std::max(Level, QubitDepth[G.qubit(I)]);
    ++Level;
    for (unsigned I = 0, E = G.numQubits(); I < E; ++I)
      QubitDepth[G.qubit(I)] = Level;
    S.Depth = std::max(S.Depth, Level);
  }
  return S;
}

size_t Circuit::count(GateKind Kind) const {
  size_t N = 0;
  for (const Gate &G : Gates)
    if (G.kind() == Kind)
      ++N;
  return N;
}

Circuit Circuit::withoutNonUnitary() const {
  Circuit Out(QubitCount, Name);
  for (const Gate &G : Gates)
    if (G.kind() != GateKind::Barrier && G.kind() != GateKind::Measure)
      Out.append(G);
  return Out;
}

std::string Circuit::str() const {
  return TextWriter::render([this](TextWriter &W) {
    for (const Gate &G : Gates) {
      appendGate(W, G);
      W << '\n';
    }
  });
}
