//===- circuit/Gate.h - Quantum gate representation ------------*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Gate kinds and the fixed-size \c Gate record that circuits are made of.
///
/// The gate set covers the paper's needs: the hardware-agnostic basis the
/// QAOA builder emits (RX, RZ, X, Y, Z, H, ID, CZ — §A.4.1), the native set
/// B = {U3, CZ} used for native gate synthesis (§7), the FPQA-native
/// multi-qubit gates (CZ, CCZ via Rydberg pulses), and the CX/CCX forms used
/// by the textbook decompositions.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_CIRCUIT_GATE_H
#define WEAVER_CIRCUIT_GATE_H

#include <array>
#include <cassert>
#include <cstdint>
#include <string>
#include <string_view>

namespace weaver {
namespace circuit {

/// Enumerates every gate the IR can hold.
enum class GateKind : uint8_t {
  I,       ///< identity
  X,       ///< Pauli-X
  Y,       ///< Pauli-Y
  Z,       ///< Pauli-Z
  H,       ///< Hadamard
  S,       ///< sqrt(Z)
  Sdg,     ///< S dagger
  T,       ///< fourth root of Z
  Tdg,     ///< T dagger
  RX,      ///< exp(-i θ X / 2)
  RY,      ///< exp(-i θ Y / 2)
  RZ,      ///< exp(-i θ Z / 2)
  U3,      ///< generic 1-qubit rotation U3(θ, φ, λ) in Qiskit convention
  CX,      ///< controlled-X
  CZ,      ///< controlled-Z (FPQA-native via Rydberg pulse)
  SWAP,    ///< swap
  RZZ,     ///< exp(-i θ Z⊗Z / 2)
  CCX,     ///< Toffoli
  CCZ,     ///< doubly-controlled Z (FPQA-native via 3-atom Rydberg pulse)
  Barrier, ///< scheduling barrier over all qubits
  Measure, ///< computational-basis measurement
};

/// Number of distinct GateKind values (for histogram arrays).
inline constexpr unsigned NumGateKinds =
    static_cast<unsigned>(GateKind::Measure) + 1;

/// Returns the number of qubit operands of \p Kind (0 for Barrier).
unsigned gateArity(GateKind Kind);

/// Returns the number of angle parameters of \p Kind.
unsigned gateNumParams(GateKind Kind);

/// Returns the lowercase OpenQASM mnemonic (e.g. "cz", "u3", "ccz").
std::string_view gateName(GateKind Kind);

/// Parses an OpenQASM mnemonic; returns false if unknown. "u" parses as U3
/// and "id" as I, matching OpenQASM 3 aliases.
bool parseGateName(std::string_view Name, GateKind &Kind);

/// One gate application: a kind, up to three qubit operands, and up to three
/// angle parameters. Kept trivially copyable; circuits are flat vectors of
/// these.
class Gate {
public:
  Gate() = default;

  /// Builds a gate and asserts the operand/parameter counts match the kind.
  Gate(GateKind Kind, std::initializer_list<int> Qubits,
       std::initializer_list<double> Params = {})
      : Kind(Kind) {
    assert(Qubits.size() == gateArity(Kind) && "wrong qubit operand count");
    assert(Params.size() == gateNumParams(Kind) && "wrong parameter count");
    unsigned I = 0;
    for (int Q : Qubits)
      QubitStorage[I++] = Q;
    I = 0;
    for (double P : Params)
      ParamStorage[I++] = P;
  }

  /// Rebuilds a gate from its raw storage arrays (binary deserialization;
  /// see support/BinaryIO.h). Slots beyond the kind's arity/parameter
  /// count must hold the default 0 so the result is indistinguishable
  /// from a normally constructed gate.
  static Gate fromStorage(GateKind Kind, const std::array<int, 3> &Qubits,
                          const std::array<double, 3> &Params) {
    Gate G;
    G.Kind = Kind;
    G.QubitStorage = Qubits;
    G.ParamStorage = Params;
    return G;
  }

  GateKind kind() const { return Kind; }
  unsigned numQubits() const { return gateArity(Kind); }
  unsigned numParams() const { return gateNumParams(Kind); }

  /// Returns the \p I-th qubit operand.
  int qubit(unsigned I) const {
    assert(I < numQubits() && "qubit operand index out of range");
    return QubitStorage[I];
  }

  /// Returns the \p I-th angle parameter.
  double param(unsigned I) const {
    assert(I < numParams() && "parameter index out of range");
    return ParamStorage[I];
  }

  /// Overwrites the \p I-th angle parameter (program-template angle
  /// substitution; see core::pipeline::AngleSlot).
  void setParam(unsigned I, double Value) {
    assert(I < numParams() && "parameter index out of range");
    ParamStorage[I] = Value;
  }

  /// Returns true if the gate acts on qubit \p Q.
  bool actsOn(int Q) const {
    for (unsigned I = 0, E = numQubits(); I < E; ++I)
      if (QubitStorage[I] == Q)
        return true;
    return false;
  }

  /// Returns true if this gate and \p Other touch a common qubit (Barrier
  /// overlaps everything).
  bool overlaps(const Gate &Other) const {
    if (Kind == GateKind::Barrier || Other.Kind == GateKind::Barrier)
      return true;
    for (unsigned I = 0, E = numQubits(); I < E; ++I)
      if (Other.actsOn(QubitStorage[I]))
        return true;
    return false;
  }

  /// Renders "cz q[0], q[1]"-style text for diagnostics (appendGate).
  std::string str() const;

private:
  GateKind Kind = GateKind::I;
  std::array<int, 3> QubitStorage = {0, 0, 0};
  std::array<double, 3> ParamStorage = {0.0, 0.0, 0.0};
};

/// Appends \p G as "rz(0.5) q[3]" / "cz q[0], q[1]" / "measure q[2]" /
/// "barrier", with no terminator. The one gate renderer: Gate::str() and
/// every OpenQASM 3 / wQASM statement line (this text plus ";\n") use it.
void appendGate(std::string &Out, const Gate &G);

} // namespace circuit
} // namespace weaver

#endif // WEAVER_CIRCUIT_GATE_H
