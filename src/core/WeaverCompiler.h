//===- core/WeaverCompiler.h - End-to-end Weaver pipeline ------*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The public entry point of the Weaver FPQA path (paper Fig. 3): clause
/// colouring -> colour shuttling -> 3-qubit gate compression -> wQASM +
/// pulse generation, with optional wChecker verification and the metrics
/// the evaluation reports (compile time, pulses, execution time, EPS).
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_CORE_WEAVERCOMPILER_H
#define WEAVER_CORE_WEAVERCOMPILER_H

#include "core/ClauseColoring.h"
#include "core/WChecker.h"
#include "core/pipeline/CompilationContext.h"
#include "fpqa/Analysis.h"

#include <optional>

namespace weaver {
namespace core {

namespace pipeline {
class PassCache;
} // namespace pipeline

/// Pipeline configuration.
struct WeaverOptions {
  fpqa::HardwareParams Hw;
  qaoa::QaoaParams Qaoa;
  Layout Geometry;

  /// Gate-compression policy (§5.4): Auto consults
  /// HardwareParams::cczCompressionProfitable().
  enum class CompressionMode { Auto, On, Off };
  CompressionMode Compression = CompressionMode::Auto;

  /// Use DSatur (Algorithm 1); false selects the first-fit ablation.
  bool UseDSatur = true;
  /// Keep atoms used by consecutive colours on the AOD (§5.3, Algorithm 2).
  /// False returns every atom home between colours (ablation).
  bool ReuseAodAtoms = true;
  /// Append measurements to the generated program.
  bool Measure = false;
  /// Run the wChecker after compilation (stage 2 runs when the register
  /// is small enough and a reference circuit is requested).
  bool RunChecker = false;
  CheckOptions Checker;

  /// Optional pass-result memoisation shared across compilations (not
  /// owned; must outlive every compile using it). Parameter sweeps over
  /// the same formula reuse, across gamma/beta points, the whole program
  /// template — output stays byte identical with the cache on or off.
  /// Safe to share between threads (the cache is internally
  /// mutex-guarded); see pipeline/PassCache.h.
  pipeline::PassCache *Cache = nullptr;

  /// Optional cooperative cancellation (not owned; must outlive the
  /// compile). The pipeline checks the token before each pass, and a
  /// program-template hit once before its copy; a cancelled compile
  /// returns a Status recognised by isCancelledStatus() and publishes
  /// nothing into the cache. See support/CancelToken.h.
  const CancelToken *Cancel = nullptr;
};

/// Everything the pipeline produces.
struct WeaverResult {
  qasm::WqasmProgram Program;   ///< annotated wQASM output
  ClauseColoring Coloring;      ///< §5.2 result
  bool CompressionUsed = false; ///< §5.4 decision
  fpqa::PulseStats Stats;       ///< pulses / duration / EPS (§8)
  double CompileSeconds = 0;    ///< wall-clock compile time
  /// Per-pass wall-clock breakdown of the pipeline run (diagnostics; the
  /// pulse-emission pass is excluded from CompileSeconds). A
  /// program-template hit runs no pass and records one "program-template"
  /// entry.
  std::vector<pipeline::PassTiming> PassTimings;
  /// Cache diagnostic: the program template was restored instead of
  /// recomputed.
  bool ProgramFromCache = false;
  std::optional<CheckReport> Check; ///< present when RunChecker was set
};

/// Compiles \p Formula for the FPQA backend.
Expected<WeaverResult> compileWeaver(const sat::CnfFormula &Formula,
                                     const WeaverOptions &Options = {});

} // namespace core
} // namespace weaver

#endif // WEAVER_CORE_WEAVERCOMPILER_H
