//===- qasm/Parser.h - OpenQASM / wQASM parser -----------------*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Recursive-descent parser for the OpenQASM 2/3 subset used by the paper's
/// pipeline plus the wQASM annotation grammar of Fig. 4.
///
/// Supported statements: the OPENQASM version header, `include` (ignored),
/// `qreg`/`qubit` and `creg`/`bit` declarations, gate calls with constant
/// parameter expressions (numbers, `pi`, + - * / and parentheses),
/// `measure` (both QASM2 arrow and bare forms), `barrier`, and every wQASM
/// annotation of Table 1.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_QASM_PARSER_H
#define WEAVER_QASM_PARSER_H

#include "qasm/Program.h"
#include "support/Status.h"

#include <string_view>

namespace weaver {
namespace qasm {

/// Ceilings parseWqasm enforces on untrusted text; the same values as
/// oq2::Oq2Limits' defaults.
constexpr int MaxProgramQubits = 4096;   ///< total across quantum registers
constexpr int MaxProgramBits = 1 << 20;  ///< total across classical registers
constexpr int MaxParamExprDepth = 64;    ///< nested '(' and unary signs

/// Parses (w)QASM text into a program. Returns a descriptive error with a
/// line number on malformed input; the first error in source order wins.
/// Integer operands (sizes, indices) must be integer literals that fit an
/// int, and every qubit operand, bare or register-indexed, must name a
/// declared qubit.
Expected<WqasmProgram> parseWqasm(std::string_view Source);

/// Convenience: parse and immediately lower to a circuit, dropping
/// annotations.
Expected<circuit::Circuit> parseQasmCircuit(std::string_view Source);

} // namespace qasm
} // namespace weaver

#endif // WEAVER_QASM_PARSER_H
