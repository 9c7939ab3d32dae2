//===- baselines/Backend.h - Common compiler backend interface -*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The retargeting interface of Fig. 3: every compiler in the repository —
/// the Weaver FPQA path and the four baselines (superconducting/SABRE,
/// Atomique, DPQA, Geyser) — is invocable through one \c Backend API that
/// takes a MAX-3SAT formula plus QAOA parameters and returns the uniform
/// \c BaselineResult metric record. Drivers (benches, examples, the batch
/// compiler) retarget by swapping the backend object, not the call site.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_BASELINES_BACKEND_H
#define WEAVER_BASELINES_BACKEND_H

#include "baselines/Atomique.h"
#include "baselines/Dpqa.h"
#include "baselines/Geyser.h"
#include "baselines/Result.h"
#include "baselines/Superconducting.h"
#include "core/WeaverCompiler.h"
#include "qaoa/Builder.h"
#include "sat/Cnf.h"
#include "support/CancelToken.h"
#include "support/Status.h"

#include <memory>
#include <string>
#include <vector>

namespace weaver {
namespace baselines {

/// The full artefact of one compile, as served by the CompileService:
/// uniform metrics, the emitted wQASM text for backends that produce one
/// (only Weaver today), and the cache/cancellation disposition.
struct CompileOutput {
  BaselineResult Metrics;
  /// Printed wQASM program; empty for backends without a pulse-level
  /// output format.
  std::string Wqasm;
  /// The compile observed its CancelToken and aborted between passes.
  bool Cancelled = false;
  /// A PassCache template served the compile (Weaver only; see
  /// WeaverResult).
  bool ProgramFromCache = false;
};

/// A compiler backend: formula + QAOA parameters in, uniform metrics out.
/// Implementations must be safe to call concurrently from multiple
/// threads on distinct formulas (the BatchCompiler relies on it).
class Backend {
public:
  virtual ~Backend() = default;

  /// Stable lower-case backend name ("weaver", "superconducting", ...).
  virtual std::string name() const = 0;

  /// Compiles the QAOA program for \p Formula. Infeasible instances are
  /// reported through the result's TimedOut/Unsupported flags, never by
  /// crashing.
  virtual BaselineResult compile(const sat::CnfFormula &Formula,
                                 const qaoa::QaoaParams &Qaoa) const = 0;

  /// Compiles and additionally returns the printed program plus the
  /// cancellation/cache disposition — the entry point the CompileService
  /// uses. The default forwards to compile() and supports cancellation
  /// only before the compile starts; WeaverBackend overrides it to thread
  /// \p Cancel through the pass pipeline (aborting between passes) and to
  /// print the emitted wQASM.
  virtual CompileOutput compileFull(const sat::CnfFormula &Formula,
                                    const qaoa::QaoaParams &Qaoa,
                                    const CancelToken *Cancel = nullptr) const;
};

/// The five compilers of the paper's evaluation, in its plot order.
enum class BackendKind { Superconducting, Atomique, Weaver, Dpqa, Geyser };

inline constexpr BackendKind AllBackendKinds[] = {
    BackendKind::Superconducting, BackendKind::Atomique, BackendKind::Weaver,
    BackendKind::Dpqa, BackendKind::Geyser};

/// Returns the stable name of \p Kind ("superconducting", ...).
const char *backendKindName(BackendKind Kind);

/// Resolves a stable name back to its kind; fails on unknown names.
Expected<BackendKind> backendKindFromName(const std::string &Name);

/// Constructs the backend for \p Kind with default parameters.
std::unique_ptr<Backend> createBackend(BackendKind Kind);

/// Constructs a backend by its stable name; fails on unknown names.
Expected<std::unique_ptr<Backend>> createBackend(const std::string &Name);

/// Adapts a WeaverResult into the shared metric record.
BaselineResult toBaselineResult(const core::WeaverResult &W);

// --- Concrete backends (constructible with custom knobs) ----------------

class SuperconductingBackend : public Backend {
public:
  explicit SuperconductingBackend(SuperconductingParams Params = {})
      : Params(Params) {}
  std::string name() const override { return "superconducting"; }
  BaselineResult compile(const sat::CnfFormula &Formula,
                         const qaoa::QaoaParams &Qaoa) const override;

private:
  SuperconductingParams Params;
};

class AtomiqueBackend : public Backend {
public:
  explicit AtomiqueBackend(AtomiqueParams Params = {}) : Params(Params) {}
  std::string name() const override { return "atomique"; }
  BaselineResult compile(const sat::CnfFormula &Formula,
                         const qaoa::QaoaParams &Qaoa) const override;

private:
  AtomiqueParams Params;
};

/// The Weaver FPQA path behind the common interface. The per-call QAOA
/// parameters override the ones embedded in the options.
class WeaverBackend : public Backend {
public:
  explicit WeaverBackend(core::WeaverOptions Options = {})
      : Options(std::move(Options)) {}
  std::string name() const override { return "weaver"; }
  BaselineResult compile(const sat::CnfFormula &Formula,
                         const qaoa::QaoaParams &Qaoa) const override;
  CompileOutput compileFull(const sat::CnfFormula &Formula,
                            const qaoa::QaoaParams &Qaoa,
                            const CancelToken *Cancel = nullptr) const override;

private:
  core::WeaverOptions Options;
};

class DpqaBackend : public Backend {
public:
  explicit DpqaBackend(DpqaParams Params = {}) : Params(Params) {}
  std::string name() const override { return "dpqa"; }
  BaselineResult compile(const sat::CnfFormula &Formula,
                         const qaoa::QaoaParams &Qaoa) const override;

private:
  DpqaParams Params;
};

class GeyserBackend : public Backend {
public:
  explicit GeyserBackend(GeyserParams Params = {}) : Params(Params) {}
  std::string name() const override { return "geyser"; }
  BaselineResult compile(const sat::CnfFormula &Formula,
                         const qaoa::QaoaParams &Qaoa) const override;

private:
  GeyserParams Params;
};

} // namespace baselines
} // namespace weaver

#endif // WEAVER_BASELINES_BACKEND_H
