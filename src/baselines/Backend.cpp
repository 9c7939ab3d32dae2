//===- baselines/Backend.cpp - Common compiler backend interface ----------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "baselines/Backend.h"

#include "qasm/Printer.h"

using namespace weaver;
using namespace weaver::baselines;

CompileOutput Backend::compileFull(const sat::CnfFormula &Formula,
                                   const qaoa::QaoaParams &Qaoa,
                                   const CancelToken *Cancel) const {
  CompileOutput Out;
  // Baselines have no between-pass checkpoints; honour the token at the
  // only safe point — before the compile starts.
  if (Cancel && Cancel->checkpoint()) {
    Out.Cancelled = true;
    Out.Metrics.Compiler = name();
    Out.Metrics.Unsupported = true;
    Out.Metrics.Diagnostic = CancelledDiagnostic;
    return Out;
  }
  Out.Metrics = compile(Formula, Qaoa);
  return Out;
}

CompileOutput WeaverBackend::compileFull(const sat::CnfFormula &Formula,
                                         const qaoa::QaoaParams &Qaoa,
                                         const CancelToken *Cancel) const {
  core::WeaverOptions Opt = Options;
  Opt.Qaoa = Qaoa;
  Opt.Cancel = Cancel;
  CompileOutput Out;
  auto W = core::compileWeaver(Formula, Opt);
  if (!W) {
    Out.Metrics.Compiler = name();
    if (isCancelledStatus(W.status())) {
      Out.Cancelled = true;
      Out.Metrics.Diagnostic = CancelledDiagnostic;
    } else {
      Out.Metrics.Unsupported = true;
      Out.Metrics.Diagnostic = W.message();
    }
    return Out;
  }
  Out.Metrics = toBaselineResult(*W);
  Out.Wqasm = qasm::printWqasm(W->Program);
  Out.ProgramFromCache = W->ProgramFromCache;
  return Out;
}

const char *baselines::backendKindName(BackendKind Kind) {
  switch (Kind) {
  case BackendKind::Superconducting:
    return "superconducting";
  case BackendKind::Atomique:
    return "atomique";
  case BackendKind::Weaver:
    return "weaver";
  case BackendKind::Dpqa:
    return "dpqa";
  case BackendKind::Geyser:
    return "geyser";
  }
  return "unknown";
}

std::unique_ptr<Backend> baselines::createBackend(BackendKind Kind) {
  switch (Kind) {
  case BackendKind::Superconducting:
    return std::make_unique<SuperconductingBackend>();
  case BackendKind::Atomique:
    return std::make_unique<AtomiqueBackend>();
  case BackendKind::Weaver:
    return std::make_unique<WeaverBackend>();
  case BackendKind::Dpqa:
    return std::make_unique<DpqaBackend>();
  case BackendKind::Geyser:
    return std::make_unique<GeyserBackend>();
  }
  return nullptr;
}

Expected<BackendKind> baselines::backendKindFromName(const std::string &Name) {
  for (BackendKind Kind : AllBackendKinds)
    if (Name == backendKindName(Kind))
      return Kind;
  return Expected<BackendKind>::error("unknown backend '" + Name + "'");
}

Expected<std::unique_ptr<Backend>>
baselines::createBackend(const std::string &Name) {
  Expected<BackendKind> Kind = backendKindFromName(Name);
  if (!Kind)
    return Expected<std::unique_ptr<Backend>>(Kind.status());
  return createBackend(*Kind);
}

BaselineResult baselines::toBaselineResult(const core::WeaverResult &W) {
  BaselineResult R;
  R.Compiler = "weaver";
  R.CompileSeconds = W.CompileSeconds;
  R.Pulses = W.Stats.totalPulses();
  R.TwoQubitGates = W.Stats.CzGates;
  R.ThreeQubitGates = W.Stats.CczGates;
  R.ExecutionSeconds = W.Stats.Duration;
  R.Eps = W.Stats.Eps;
  R.Colors = W.Coloring.numColors();
  return R;
}

BaselineResult
SuperconductingBackend::compile(const sat::CnfFormula &Formula,
                                const qaoa::QaoaParams &Qaoa) const {
  BaselineResult R = compileSuperconducting(Formula, Qaoa, Params);
  R.Compiler = name();
  return R;
}

BaselineResult AtomiqueBackend::compile(const sat::CnfFormula &Formula,
                                        const qaoa::QaoaParams &Qaoa) const {
  BaselineResult R = compileAtomique(Formula, Qaoa, Params);
  R.Compiler = name();
  return R;
}

BaselineResult WeaverBackend::compile(const sat::CnfFormula &Formula,
                                      const qaoa::QaoaParams &Qaoa) const {
  core::WeaverOptions Opt = Options;
  Opt.Qaoa = Qaoa;
  auto W = core::compileWeaver(Formula, Opt);
  if (!W) {
    // Malformed formulas (clause wider than three literals) and pipeline
    // failures both land here; keep the message so drivers can tell a bad
    // input from a compiler bug.
    BaselineResult R;
    R.Compiler = name();
    R.Unsupported = true;
    R.Diagnostic = W.message();
    return R;
  }
  return toBaselineResult(*W);
}

BaselineResult DpqaBackend::compile(const sat::CnfFormula &Formula,
                                    const qaoa::QaoaParams &Qaoa) const {
  BaselineResult R = compileDpqa(Formula, Qaoa, Params);
  R.Compiler = name();
  return R;
}

BaselineResult GeyserBackend::compile(const sat::CnfFormula &Formula,
                                      const qaoa::QaoaParams &Qaoa) const {
  BaselineResult R = compileGeyser(Formula, Qaoa, Params);
  R.Compiler = name();
  return R;
}
