//===- circuit/Gate.cpp - Quantum gate representation --------------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "circuit/Gate.h"

#include "support/StringUtils.h"

using namespace weaver;
using namespace weaver::circuit;

unsigned circuit::gateArity(GateKind Kind) {
  switch (Kind) {
  case GateKind::I:
  case GateKind::X:
  case GateKind::Y:
  case GateKind::Z:
  case GateKind::H:
  case GateKind::S:
  case GateKind::Sdg:
  case GateKind::T:
  case GateKind::Tdg:
  case GateKind::RX:
  case GateKind::RY:
  case GateKind::RZ:
  case GateKind::U3:
  case GateKind::Measure:
    return 1;
  case GateKind::CX:
  case GateKind::CZ:
  case GateKind::SWAP:
  case GateKind::RZZ:
    return 2;
  case GateKind::CCX:
  case GateKind::CCZ:
    return 3;
  case GateKind::Barrier:
    return 0;
  }
  assert(false && "unknown gate kind");
  return 0;
}

unsigned circuit::gateNumParams(GateKind Kind) {
  switch (Kind) {
  case GateKind::RX:
  case GateKind::RY:
  case GateKind::RZ:
  case GateKind::RZZ:
    return 1;
  case GateKind::U3:
    return 3;
  default:
    return 0;
  }
}

std::string_view circuit::gateName(GateKind Kind) {
  switch (Kind) {
  case GateKind::I:
    return "id";
  case GateKind::X:
    return "x";
  case GateKind::Y:
    return "y";
  case GateKind::Z:
    return "z";
  case GateKind::H:
    return "h";
  case GateKind::S:
    return "s";
  case GateKind::Sdg:
    return "sdg";
  case GateKind::T:
    return "t";
  case GateKind::Tdg:
    return "tdg";
  case GateKind::RX:
    return "rx";
  case GateKind::RY:
    return "ry";
  case GateKind::RZ:
    return "rz";
  case GateKind::U3:
    return "u3";
  case GateKind::CX:
    return "cx";
  case GateKind::CZ:
    return "cz";
  case GateKind::SWAP:
    return "swap";
  case GateKind::RZZ:
    return "rzz";
  case GateKind::CCX:
    return "ccx";
  case GateKind::CCZ:
    return "ccz";
  case GateKind::Barrier:
    return "barrier";
  case GateKind::Measure:
    return "measure";
  }
  assert(false && "unknown gate kind");
  return "";
}

bool circuit::parseGateName(std::string_view Name, GateKind &Kind) {
  for (unsigned I = 0; I < NumGateKinds; ++I) {
    GateKind K = static_cast<GateKind>(I);
    if (gateName(K) == Name) {
      Kind = K;
      return true;
    }
  }
  // OpenQASM 3 aliases.
  if (Name == "u") {
    Kind = GateKind::U3;
    return true;
  }
  if (Name == "cnot") {
    Kind = GateKind::CX;
    return true;
  }
  if (Name == "ccnot" || Name == "toffoli") {
    Kind = GateKind::CCX;
    return true;
  }
  return false;
}

void circuit::appendGate(std::string &Out, const Gate &G) {
  Out += gateName(G.kind());
  for (unsigned I = 0, E = G.numParams(); I < E; ++I)
    appendAll(Out, I ? ", " : "(", G.param(I));
  if (G.numParams() > 0)
    Out += ')';
  for (unsigned I = 0, E = G.numQubits(); I < E; ++I)
    appendAll(Out, I ? ", q[" : " q[", G.qubit(I), ']');
}

std::string Gate::str() const {
  std::string Out;
  appendGate(Out, *this);
  return Out;
}
