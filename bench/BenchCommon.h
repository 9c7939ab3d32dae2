//===- bench/BenchCommon.h - Shared benchmark harness ----------*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Shared plumbing for the per-figure benchmark binaries: runs every
/// compiler (Weaver + the four baselines) on a formula and renders the
/// paper-style rows. Timeout cells render as "X" exactly like the paper's
/// plots; "-" marks backends that cannot fit the instance (superconducting
/// above 127 qubits).
///
/// Budgeted reproduction note: the paper gave Geyser and DPQA a 20-hour
/// timeout and reports that both time out above 20 variables. We keep
/// their exponential/quadratic search cores but give them seconds-scale
/// deadlines so the whole suite runs in minutes; above 20 variables they
/// are reported as timed out without being launched, matching the paper's
/// observed outcome (see DESIGN.md).
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_BENCH_BENCHCOMMON_H
#define WEAVER_BENCH_BENCHCOMMON_H

#include "baselines/Backend.h"
#include "core/WeaverCompiler.h"
#include "sat/Generator.h"
#include "support/StringUtils.h"
#include "support/Table.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

namespace weaver {
namespace bench {

/// Paper-style tables print by default; WEAVER_BENCH_TABLES=0 skips them
/// so smoke runs (the bench-smoke ctest label) exercise only the
/// registered google-benchmark counters and finish in seconds.
inline bool tablesEnabled() {
  const char *Env = std::getenv("WEAVER_BENCH_TABLES");
  return !Env || std::string(Env) != "0";
}

/// Which compilers a bench run includes.
struct SuiteConfig {
  bool RunSuperconducting = true;
  bool RunAtomique = true;
  bool RunWeaver = true;
  bool RunDpqa = true;
  bool RunGeyser = true;
  /// Above this size Geyser/DPQA are marked timed out without running.
  int SlowCompilerSizeCap = 20;
  /// Seconds-scale stand-ins for the paper's 20-hour timeout.
  double GeyserDeadline = 60.0;
  double DpqaDeadline = 30.0;
  int GeyserTrials = 40;
  qaoa::QaoaParams Qaoa;
};

/// The five per-compiler results for one instance, in the paper's plot
/// order: Superconducting, Atomique, Weaver, DPQA, Geyser.
struct InstanceResults {
  baselines::BaselineResult Superconducting, Atomique, Weaver, Dpqa, Geyser;

  const baselines::BaselineResult &get(int I) const {
    switch (I) {
    case 0:
      return Superconducting;
    case 1:
      return Atomique;
    case 2:
      return Weaver;
    case 3:
      return Dpqa;
    default:
      return Geyser;
    }
  }
};

inline const char *compilerName(int I) {
  return baselines::backendKindName(baselines::AllBackendKinds[I]);
}
inline constexpr int NumCompilers =
    static_cast<int>(std::size(baselines::AllBackendKinds));

/// Runs the configured compilers on \p Formula through the common
/// Backend interface.
inline InstanceResults runSuite(const sat::CnfFormula &Formula,
                                const SuiteConfig &Config) {
  InstanceResults R;
  bool SkipSlow = Formula.numVariables() > Config.SlowCompilerSizeCap;
  if (Config.RunSuperconducting)
    R.Superconducting =
        baselines::SuperconductingBackend().compile(Formula, Config.Qaoa);
  R.Superconducting.Compiler = "superconducting";
  if (Config.RunAtomique)
    R.Atomique = baselines::AtomiqueBackend().compile(Formula, Config.Qaoa);
  R.Atomique.Compiler = "atomique";
  if (Config.RunWeaver)
    R.Weaver = baselines::WeaverBackend().compile(Formula, Config.Qaoa);
  R.Weaver.Compiler = "weaver";
  if (Config.RunDpqa) {
    if (SkipSlow) {
      R.Dpqa.TimedOut = true;
    } else {
      baselines::DpqaParams P;
      P.DeadlineSeconds = Config.DpqaDeadline;
      R.Dpqa = baselines::DpqaBackend(P).compile(Formula, Config.Qaoa);
    }
  }
  R.Dpqa.Compiler = "dpqa";
  if (Config.RunGeyser) {
    if (SkipSlow) {
      R.Geyser.TimedOut = true;
    } else {
      baselines::GeyserParams P;
      P.DeadlineSeconds = Config.GeyserDeadline;
      P.SynthesisTrials = Config.GeyserTrials;
      R.Geyser = baselines::GeyserBackend(P).compile(Formula, Config.Qaoa);
    }
  }
  R.Geyser.Compiler = "geyser";
  return R;
}

/// Formats a metric cell: "X" when timed out, "-" when unsupported.
inline std::string cell(const baselines::BaselineResult &R, double Value,
                        const char *Fmt = "%.4g") {
  if (R.TimedOut)
    return "X";
  if (R.Unsupported)
    return "-";
  return formatf(Fmt, Value);
}

/// Geometric mean over positive values (the paper reports means of
/// log-scaled quantities).
inline double geoMean(const std::vector<double> &Values) {
  if (Values.empty())
    return 0;
  double LogSum = 0;
  for (double V : Values)
    LogSum += std::log(V);
  return std::exp(LogSum / Values.size());
}

} // namespace bench
} // namespace weaver

#endif // WEAVER_BENCH_BENCHCOMMON_H
