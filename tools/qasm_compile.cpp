//===- tools/qasm_compile.cpp - Compile an OpenQASM 2 file ----------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Command-line front door for arbitrary-circuit workloads: parses an
/// OpenQASM 2 file through src/oq2/, recovers the QAOA structure when the
/// circuit is builder-shaped, and compiles it on any BackendKind. When
/// recovery fails, the circuit still compiles on the superconducting
/// backend, which accepts arbitrary circuits; the FPQA-style backends
/// need the (formula, params) form and report why recovery failed.
///
//===----------------------------------------------------------------------===//

#include "ArgReader.h"
#include "baselines/Backend.h"
#include "core/WeaverCompiler.h"
#include "oq2/Frontend.h"
#include "oq2/QaoaRecover.h"
#include "qasm/Printer.h"
#include "support/StringUtils.h"

#include <cstdio>
#include <cstdlib>
#include <string>

using namespace weaver;

namespace {

const char *Usage =
    "usage: qasm_compile <file.qasm> [--backend NAME] [--check] [--emit]\n"
    "  --backend NAME  superconducting | atomique | weaver | dpqa | geyser\n"
    "                  (default: weaver)\n"
    "  --check         run the wChecker on the emitted program (weaver)\n"
    "  --emit          print the emitted wQASM program (weaver)\n";

void printResult(const baselines::BaselineResult &R) {
  if (!R.usable()) {
    std::printf("status: %s%s%s\n", R.TimedOut ? "timed out" : "unsupported",
                R.Diagnostic.empty() ? "" : ": ",
                R.Diagnostic.c_str());
    return;
  }
  std::printf("compiler: %s\n", R.Compiler.c_str());
  std::printf("compile seconds: %s\n", formatDouble(R.CompileSeconds).c_str());
  std::printf("pulses: %zu\n", R.Pulses);
  std::printf("two-qubit gates: %zu\n", R.TwoQubitGates);
  std::printf("three-qubit gates: %zu\n", R.ThreeQubitGates);
  std::printf("execution seconds: %s\n",
              formatDouble(R.ExecutionSeconds).c_str());
  if (R.EpsMeaningful)
    std::printf("eps: %s\n", formatDouble(R.Eps).c_str());
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Path;
  std::string BackendName = "weaver";
  bool Check = false, Emit = false;
  ArgReader Args(Argc, Argv, Usage);
  while (Args.next()) {
    const std::string &Arg = Args.arg();
    if (Arg == "--backend")
      BackendName = Args.value();
    else if (Arg == "--check")
      Check = true;
    else if (Arg == "--emit")
      Emit = true;
    else if (Arg == "--help") {
      std::fprintf(stderr, "%s", Usage);
      return 0;
    } else if (!Arg.empty() && Arg[0] == '-') {
      std::fprintf(stderr, "error: unknown flag '%s'\n%s", Arg.c_str(),
                   Usage);
      return 1;
    } else if (Path.empty()) {
      Path = Arg;
    } else {
      std::fprintf(stderr, "error: more than one input file\n%s", Usage);
      return 1;
    }
  }
  if (Path.empty()) {
    std::fprintf(stderr, "%s", Usage);
    return 1;
  }
  Expected<baselines::BackendKind> Kind =
      baselines::backendKindFromName(BackendName);
  if (!Kind) {
    std::fprintf(stderr, "error: %s\n%s", Kind.message().c_str(), Usage);
    return 1;
  }

  Expected<circuit::Circuit> C = oq2::parseOq2File(Path);
  if (!C) {
    std::fprintf(stderr, "error: %s\n", C.message().c_str());
    return 1;
  }
  circuit::CircuitStats Stats = C->stats();
  std::printf("parsed: %d qubits, %zu gates, depth %zu\n", C->numQubits(),
              Stats.TotalGates, Stats.Depth);

  Expected<oq2::RecoveredQaoa> R = oq2::recoverQaoa(*C);
  if (!R) {
    // Arbitrary circuit: only the superconducting path takes one.
    if (*Kind != baselines::BackendKind::Superconducting) {
      std::fprintf(stderr,
                   "error: backend '%s' compiles QAOA instances only, and "
                   "%s\n       (compile arbitrary circuits with "
                   "--backend superconducting)\n",
                   BackendName.c_str(), R.message().c_str());
      return 1;
    }
    printResult(baselines::compileSuperconductingCircuit(*C));
    return 0;
  }
  std::printf("recovered: %d variables, %zu clauses, %d layer(s)%s\n",
              R->Formula.numVariables(), R->Formula.numClauses(),
              R->Params.Layers,
              R->Params.UseCompressedClauses ? ", compressed" : "");

  if (*Kind == baselines::BackendKind::Weaver && (Check || Emit)) {
    core::WeaverOptions Options;
    Options.Qaoa = R->Params;
    Options.RunChecker = Check;
    Expected<core::WeaverResult> W = core::compileWeaver(R->Formula, Options);
    if (!W) {
      std::fprintf(stderr, "error: %s\n", W.message().c_str());
      return 1;
    }
    baselines::BaselineResult Metrics = baselines::toBaselineResult(*W);
    printResult(Metrics);
    if (Check) {
      if (!W->Check) {
        std::printf("wchecker: not run\n");
      } else {
        std::printf("wchecker: %s (structural %s, unitary %s)\n",
                    W->Check->passed() ? "passed" : "FAILED",
                    W->Check->StructuralOk ? "ok" : "failed",
                    W->Check->UnitaryChecked
                        ? (W->Check->UnitaryOk ? "ok" : "failed")
                        : "skipped");
        if (!W->Check->passed()) {
          std::fprintf(stderr, "error: %s\n", W->Check->Diagnostic.c_str());
          return 1;
        }
      }
    }
    if (Emit)
      std::fputs(qasm::printWqasm(W->Program).c_str(), stdout);
    return 0;
  }

  std::unique_ptr<baselines::Backend> Backend =
      baselines::createBackend(*Kind);
  printResult(Backend->compile(R->Formula, R->Params));
  return 0;
}
