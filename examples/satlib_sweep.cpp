//===- examples/satlib_sweep.cpp - Scaling sweep over SATLIB sizes ---------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Sweeps the SATLIB-style suite sizes the paper evaluates (20..250
/// variables) through the Weaver pipeline under several QAOA
/// (gamma, beta) points, printing per-size averages — a miniature of the
/// Fig. 8b/10b/11b/12b series for quick exploration. Each sweep point is
/// compiled as one batch across the BatchCompiler's thread pool, and all
/// workers share one PassCache: the program template is computed once
/// per formula, then restored and angle-patched for every later point. The table's last column
/// reports the measured compile-time speedup against an uncached sweep.
/// Optionally reads a real DIMACS file instead:
///   satlib_sweep path/to/instance.cnf
///
/// With --cache-file PATH the cached sweep warm-starts from the persisted
/// PassCache snapshot at PATH (when present and valid) and writes the
/// populated cache back when the sweep finishes — a second run then
/// serves every template from disk (see pipeline/PassCache.h).
///
//===----------------------------------------------------------------------===//

#include "core/BatchCompiler.h"
#include "core/WeaverCompiler.h"
#include "core/pipeline/PassCache.h"
#include "sat/Dimacs.h"
#include "sat/Generator.h"
#include "support/StringUtils.h"
#include "support/Table.h"

#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>

using namespace weaver;

namespace {

constexpr int Instances = 3;
constexpr int SweepPoints = 5;

int runSingleFile(const char *Path) {
  auto F = sat::parseDimacsFile(Path);
  if (!F) {
    std::fprintf(stderr, "error: %s\n", F.message().c_str());
    return 1;
  }
  core::WeaverOptions Options;
  auto R = core::compileWeaver(*F, Options);
  if (!R) {
    std::fprintf(stderr, "error: %s\n", R.message().c_str());
    return 1;
  }
  std::printf("%s: %d vars, %zu clauses -> %d colours, %zu pulses, "
              "%.3f ms exec, EPS %.3g, compiled in %.2f ms\n",
              Path, F->numVariables(), F->numClauses(),
              R->Coloring.numColors(), R->Stats.totalPulses(),
              R->Stats.Duration * 1e3, R->Stats.Eps,
              R->CompileSeconds * 1e3);
  return 0;
}

/// Compiles the batch at every sweep point; accumulates the summed
/// compile seconds per batch slot into \p CompileBySlot and returns the
/// final point's results (metrics other than compile time are identical
/// across points at fixed layers).
std::vector<baselines::BaselineResult>
runSweep(const baselines::Backend &Backend,
         const std::vector<sat::CnfFormula> &Batch,
         std::vector<double> &CompileBySlot) {
  std::vector<baselines::BaselineResult> Last;
  for (int P = 0; P < SweepPoints; ++P) {
    core::BatchOptions BOpt;
    BOpt.Qaoa.Gamma = 0.30 + 0.10 * P;
    BOpt.Qaoa.Beta = 0.20 + 0.05 * P;
    Last = core::BatchCompiler(Backend, BOpt).compileAll(Batch);
    for (size_t I = 0; I < Last.size(); ++I)
      CompileBySlot[I] += Last[I].CompileSeconds;
  }
  return Last;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string CacheFile;
  if (Argc == 3 && std::string(Argv[1]) == "--cache-file")
    CacheFile = Argv[2];
  else if (Argc > 1)
    return runSingleFile(Argv[1]);

  // One flat batch over all sizes; the pool balances the mixed instance
  // sizes dynamically.
  std::vector<sat::CnfFormula> Batch;
  for (int N : sat::SatlibSizes)
    for (int I = 1; I <= Instances; ++I)
      Batch.push_back(sat::satlibInstance(N, I));

  std::vector<double> UncachedCompile(Batch.size(), 0);
  std::vector<double> CachedCompile(Batch.size(), 0);

  baselines::WeaverBackend Uncached;
  auto Start = std::chrono::steady_clock::now();
  runSweep(Uncached, Batch, UncachedCompile);
  double WallOff = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - Start)
                       .count();

  core::pipeline::PassCache Cache;
  size_t Loaded = 0;
  if (!CacheFile.empty()) {
    // A missing/stale/corrupt snapshot is just a cold start.
    if (!Cache.loadSnapshot(CacheFile))
      Loaded = Cache.size();
  }
  core::WeaverOptions WOpt;
  WOpt.Cache = &Cache;
  baselines::WeaverBackend CachedBackend(WOpt);
  Start = std::chrono::steady_clock::now();
  std::vector<baselines::BaselineResult> Results =
      runSweep(CachedBackend, Batch, CachedCompile);
  double WallOn = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - Start)
                      .count();

  Table T({"size", "clauses", "colours", "pulses", "compile [ms]",
           "exec [ms]", "EPS", "cache speedup"});
  for (size_t S = 0; S < std::size(sat::SatlibSizes); ++S) {
    int N = sat::SatlibSizes[S];
    double Compile = 0, Exec = 0, EpsLog = 0, CompileOff = 0, CompileOn = 0;
    size_t Pulses = 0;
    int Colors = 0;
    size_t Clauses = Batch[S * Instances].numClauses();
    for (int I = 0; I < Instances; ++I) {
      size_t Slot = S * Instances + I;
      const baselines::BaselineResult &R = Results[Slot];
      if (!R.usable()) {
        std::fprintf(stderr, "error at N=%d: %s\n", N,
                     R.Diagnostic.empty() ? "instance unsupported"
                                          : R.Diagnostic.c_str());
        return 1;
      }
      Compile += CachedCompile[Slot] / (Instances * SweepPoints);
      Exec += R.ExecutionSeconds / Instances;
      EpsLog += std::log10(R.Eps) / Instances;
      Pulses += R.Pulses / Instances;
      Colors = std::max(Colors, R.Colors);
      CompileOff += UncachedCompile[Slot];
      CompileOn += CachedCompile[Slot];
    }
    T.addRow({std::to_string(N), std::to_string(Clauses),
              std::to_string(Colors), std::to_string(Pulses),
              formatf("%.2f", Compile * 1e3), formatf("%.2f", Exec * 1e3),
              formatf("1e%.1f", EpsLog),
              formatf("%.2fx", CompileOff / CompileOn)});
  }
  std::printf("%s", T.render().c_str());
  core::pipeline::PassCache::CacheStats CS = Cache.stats();
  std::printf("sweep: %zu instances x %d points on %d threads; wall "
              "%.2f s uncached vs %.2f s cached (%.2fx); template "
              "hits/misses %llu/%llu\n",
              Batch.size(), SweepPoints,
              core::BatchCompiler(Uncached).effectiveThreads(Batch.size()),
              WallOff, WallOn, WallOff / WallOn,
              static_cast<unsigned long long>(CS.ProgramHits),
              static_cast<unsigned long long>(CS.ProgramMisses));
  if (!CacheFile.empty()) {
    Status S = Cache.saveSnapshot(CacheFile);
    if (S)
      std::fprintf(stderr, "warning: cache flush failed: %s\n",
                   S.message().c_str());
    else
      std::printf("cache file %s: %zu entries loaded, %zu persisted\n",
                  CacheFile.c_str(), Loaded, Cache.size());
  }
  return 0;
}
