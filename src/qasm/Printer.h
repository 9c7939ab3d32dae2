//===- qasm/Printer.h - OpenQASM / wQASM emission --------------*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Textual emission of circuits as OpenQASM 3 and of annotated programs as
/// wQASM. The printers produce the concrete syntax the parser accepts, so
/// print -> parse -> print is a fixed point (tested). Each appends every
/// line into one string through circuit::appendGate / appendAnnotation.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_QASM_PRINTER_H
#define WEAVER_QASM_PRINTER_H

#include "circuit/Circuit.h"
#include "qasm/Program.h"

#include <string>

namespace weaver {
namespace qasm {

/// Prints a plain OpenQASM 3 program ("OPENQASM 3.0;", one qubit register
/// "q", a bit register "c" when the circuit measures).
std::string printOpenQasm(const circuit::Circuit &C);

/// Prints a wQASM program: each statement is preceded by its FPQA
/// annotation lines (paper Fig. 4 concrete syntax).
std::string printWqasm(const WqasmProgram &Program);

} // namespace qasm
} // namespace weaver

#endif // WEAVER_QASM_PRINTER_H
