//===- core/WChecker.cpp - wQASM equivalence checker ----------------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/WChecker.h"

#include "fpqa/Device.h"
#include "sim/GateMatrices.h"
#include "sim/Optimize.h"
#include "sim/StateVector.h"

#include <deque>
#include <set>

using namespace weaver;
using namespace weaver::core;
using circuit::Circuit;
using circuit::Gate;
using circuit::GateKind;
using qasm::Annotation;
using qasm::AnnotationKind;

namespace {

/// The unitary of a Raman pulse with rotation angles (x, y, z):
/// RZ(z) * RY(y) * RX(x), i.e. RX applied first.
sim::Matrix ramanUnitary(const Annotation &A) {
  sim::Matrix Rx = sim::gateUnitary(Gate(GateKind::RX, {0}, {A.AngleX}));
  sim::Matrix Ry = sim::gateUnitary(Gate(GateKind::RY, {0}, {A.AngleY}));
  sim::Matrix Rz = sim::gateUnitary(Gate(GateKind::RZ, {0}, {A.AngleZ}));
  return Rz.multiply(Ry.multiply(Rx));
}

/// A pending pulse that the following logical statements must realise.
struct Expectation {
  enum class Kind { Local, Global, Rydberg };
  Kind K = Kind::Local;
  sim::Matrix Unitary;  ///< Local/Global: the 2x2 pulse unitary
  int LocalQubit = -1;  ///< Local: the addressed qubit
  int Remaining = 0;    ///< Global: statements left to consume
  /// Global: one flag per qubit, set when it held an atom at the pulse and
  /// cleared when a statement claims it.
  std::vector<char> Uncovered;
  std::vector<std::set<int>> Clusters;    ///< Rydberg: unmatched clusters
};

class Checker {
public:
  Checker(const qasm::WqasmProgram &Program, const fpqa::HardwareParams &Hw)
      : Program(Program), Device(Hw),
        Reconstructed(Program.NumQubits, "reconstructed") {}

  CheckReport run(const Circuit *Reference, const CheckOptions &Options);

private:
  bool fail(const std::string &Message) {
    if (Report.Diagnostic.empty())
      Report.Diagnostic = Message;
    return false;
  }

  bool processAnnotation(const Annotation &A);
  bool matchStatement(const Gate &G);

  const qasm::WqasmProgram &Program;
  fpqa::FpqaDevice Device;
  Circuit Reconstructed;
  std::deque<Expectation> Pending;
  CheckReport Report;
};

bool Checker::processAnnotation(const Annotation &A) {
  if (Status S = Device.apply(A))
    return fail("invalid FPQA instruction: " + S.message());
  switch (A.Kind) {
  case AnnotationKind::RamanLocal: {
    Expectation E;
    E.K = Expectation::Kind::Local;
    E.Unitary = ramanUnitary(A);
    E.LocalQubit = A.Qubit;
    Pending.push_back(std::move(E));
    break;
  }
  case AnnotationKind::RamanGlobal: {
    Expectation E;
    E.K = Expectation::Kind::Global;
    E.Unitary = ramanUnitary(A);
    E.Remaining = static_cast<int>(Device.numAtoms());
    E.Uncovered.resize(Program.NumQubits);
    for (int Q = 0; Q < Program.NumQubits; ++Q)
      E.Uncovered[Q] = Device.isBound(Q);
    Pending.push_back(std::move(E));
    break;
  }
  case AnnotationKind::Rydberg: {
    auto Clusters = Device.rydbergClustersRef();
    if (!Clusters)
      return fail("invalid Rydberg pulse: " + Clusters.message());
    Expectation E;
    E.K = Expectation::Kind::Rydberg;
    for (const fpqa::RydbergCluster &C : **Clusters)
      E.Clusters.push_back(std::set<int>(C.Qubits.begin(), C.Qubits.end()));
    if (E.Clusters.empty())
      return fail("Rydberg pulse with no interacting atoms");
    Pending.push_back(std::move(E));
    break;
  }
  default:
    break; // pure motion/setup: no logical gate implied
  }
  return true;
}

bool Checker::matchStatement(const Gate &G) {
  if (G.kind() == GateKind::Barrier || G.kind() == GateKind::Measure) {
    if (!Pending.empty())
      return fail("unconsumed pulses before a non-unitary statement");
    return true;
  }
  if (Pending.empty())
    return fail("logical gate '" + G.str() + "' has no implementing pulse");
  Expectation &E = Pending.front();
  switch (E.K) {
  case Expectation::Kind::Local: {
    if (G.numQubits() != 1)
      return fail("local Raman pulse annotates multi-qubit gate '" +
                  G.str() + "'");
    if (G.qubit(0) != E.LocalQubit)
      return fail("local Raman pulse addresses q[" +
                  std::to_string(E.LocalQubit) + "] but gate acts on '" +
                  G.str() + "'");
    if (!sim::equalUpToGlobalPhase(sim::gateUnitary(G), E.Unitary, 1e-8))
      return fail("local Raman pulse angles do not implement '" + G.str() +
                  "'");
    double Theta, Phi, Lambda;
    sim::zyzDecompose(E.Unitary, Theta, Phi, Lambda);
    Reconstructed.u3(Theta, Phi, Lambda, G.qubit(0));
    Pending.pop_front();
    return true;
  }
  case Expectation::Kind::Global: {
    if (G.numQubits() != 1)
      return fail("global Raman pulse annotates multi-qubit gate '" +
                  G.str() + "'");
    if (!sim::equalUpToGlobalPhase(sim::gateUnitary(G), E.Unitary, 1e-8))
      return fail("global Raman pulse angles do not implement '" + G.str() +
                  "'");
    int Q = G.qubit(0);
    if (Q < 0 || Q >= static_cast<int>(E.Uncovered.size()) ||
        !E.Uncovered[Q])
      return fail("global Raman pulse does not cover q[" + std::to_string(Q) +
                  "]: it held no atom at the pulse or was matched already");
    E.Uncovered[Q] = 0;
    double Theta, Phi, Lambda;
    sim::zyzDecompose(E.Unitary, Theta, Phi, Lambda);
    Reconstructed.u3(Theta, Phi, Lambda, Q);
    if (--E.Remaining == 0)
      Pending.pop_front();
    return true;
  }
  case Expectation::Kind::Rydberg: {
    if (G.kind() != GateKind::CZ && G.kind() != GateKind::CCZ)
      return fail("Rydberg pulse cannot implement '" + G.str() + "'");
    std::set<int> Operands;
    for (unsigned I = 0, N = G.numQubits(); I < N; ++I)
      Operands.insert(G.qubit(I));
    bool Found = false;
    for (size_t I = 0; I < E.Clusters.size(); ++I)
      if (E.Clusters[I] == Operands) {
        E.Clusters.erase(E.Clusters.begin() + I);
        Found = true;
        break;
      }
    if (!Found)
      return fail("Rydberg pulse clusters do not include the operands of '" +
                  G.str() + "'");
    Reconstructed.append(G);
    if (E.Clusters.empty())
      Pending.pop_front();
    return true;
  }
  }
  return fail("unknown expectation kind");
}

CheckReport Checker::run(const Circuit *Reference,
                         const CheckOptions &Options) {
  Report.StructuralOk = true;
  auto ProcessAll = [&](Span<const Annotation> Range) {
    for (const Annotation &A : Range)
      if (!processAnnotation(A))
        return false;
    return true;
  };
  for (size_t S = 0; S < Program.Statements.size(); ++S)
    if (!ProcessAll(Program.annotationsOf(S)) ||
        !matchStatement(Program.Statements[S].Gate)) {
      Report.StructuralOk = false;
      return Report;
    }
  if (!ProcessAll(Program.trailingAnnotations())) {
    Report.StructuralOk = false;
    return Report;
  }
  if (!Pending.empty()) {
    Report.StructuralOk = false;
    fail("pulse stream ends with unconsumed gate pulses");
    return Report;
  }
  Report.Reconstructed = Reconstructed;

  if (Reference && Program.NumQubits <= Options.MaxUnitaryQubits) {
    Report.UnitaryChecked = true;
    Report.UnitaryOk = sim::circuitsEquivalent(
        Reconstructed, Reference->withoutNonUnitary(), Options.Tolerance);
    if (!Report.UnitaryOk)
      fail("pulse-reconstructed circuit differs from the reference unitary");
  }
  return Report;
}

} // namespace

CheckReport core::checkWqasm(const qasm::WqasmProgram &Program,
                             const fpqa::HardwareParams &Hw,
                             const Circuit *Reference,
                             const CheckOptions &Options) {
  Checker C(Program, Hw);
  return C.run(Reference, Options);
}
