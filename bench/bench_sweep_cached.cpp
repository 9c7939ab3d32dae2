//===- bench/bench_sweep_cached.cpp - Memoised parameter sweeps -----------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Measures two optimisations of the compile path:
///
///  * PassCache: a 10-point gamma/beta sweep over SATLIB-style instances,
///    end to end, with the cache enabled vs. disabled. The first point
///    builds the program template; the remaining nine restore and
///    angle-patch it instead of recompiling.
///    Output is byte-identical either way (tests/pass_cache_test.cpp).
///
///  * DSatur: selection cost growth of the bucketed rewrite on generated
///    instances up to ~2k clauses — clearly sub-quadratic, against the
///    paper's O(N^2) bound (§5.5).
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "core/pipeline/PassCache.h"

#include <benchmark/benchmark.h>

#include <chrono>

using namespace weaver;
using namespace weaver::bench;

namespace {

constexpr int SweepPoints = 10;

/// Compiles the full gamma/beta sweep over \p F; returns the wall seconds.
double sweepSeconds(const sat::CnfFormula &F,
                    core::pipeline::PassCache *Cache) {
  auto Start = std::chrono::steady_clock::now();
  for (int I = 0; I < SweepPoints; ++I) {
    core::WeaverOptions Opt;
    Opt.Qaoa.Gamma = 0.30 + 0.05 * I;
    Opt.Qaoa.Beta = 0.20 + 0.03 * I;
    Opt.Cache = Cache;
    auto R = core::compileWeaver(F, Opt);
    benchmark::DoNotOptimize(R);
    if (!R)
      std::fprintf(stderr, "sweep compile failed: %s\n",
                   R.message().c_str());
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

void printTable() {
  Table T({"variables", "clauses", "uncached [s]", "cached [s]", "speedup",
           "template hits"});
  for (int N : sat::SatlibSizes) {
    sat::CnfFormula F = sat::satlibInstance(N, 1);
    double Off = sweepSeconds(F, nullptr);
    core::pipeline::PassCache Cache;
    double On = sweepSeconds(F, &Cache);
    T.addRow({std::to_string(N), std::to_string(F.numClauses()),
              formatf("%.3f", Off), formatf("%.3f", On),
              formatf("%.2fx", Off / On),
              std::to_string(Cache.stats().ProgramHits)});
  }
  std::printf("== %d-point gamma/beta sweep, end to end: PassCache on vs. "
              "off ==\n%s\n",
              SweepPoints, T.render().c_str());
}

void BM_SweepUncached(benchmark::State &State) {
  sat::CnfFormula F =
      sat::satlibInstance(static_cast<int>(State.range(0)), 1);
  for (auto _ : State)
    benchmark::DoNotOptimize(sweepSeconds(F, nullptr));
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_SweepUncached)->Arg(50)->Arg(100)->Arg(250)->Complexity();

void BM_SweepCached(benchmark::State &State) {
  sat::CnfFormula F =
      sat::satlibInstance(static_cast<int>(State.range(0)), 1);
  for (auto _ : State) {
    // A fresh cache per iteration: the measured sweep always pays one
    // template build plus nine restores, like a real sweep would.
    core::pipeline::PassCache Cache;
    benchmark::DoNotOptimize(sweepSeconds(F, &Cache));
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_SweepCached)->Arg(50)->Arg(100)->Arg(250)->Complexity();

/// Single compile on a warm program-template cache: copy + angle-patch
/// the template and re-index the pulse stream. The stream index is now a
/// vector of non-owning pointers into the program, so a hit pays one
/// annotation copy (the template instantiation), not two.
void BM_CachedInstantiation(benchmark::State &State) {
  sat::CnfFormula F =
      sat::satlibInstance(static_cast<int>(State.range(0)), 1);
  core::pipeline::PassCache Cache;
  core::WeaverOptions Opt;
  Opt.Cache = &Cache;
  auto Warm = core::compileWeaver(F, Opt); // builds the template entry
  benchmark::DoNotOptimize(Warm);
  Opt.Qaoa.Gamma = 0.9;
  Opt.Qaoa.Beta = 0.35;
  for (auto _ : State) {
    auto R = core::compileWeaver(F, Opt);
    benchmark::DoNotOptimize(R);
  }
}
BENCHMARK(BM_CachedInstantiation)->Arg(100)->Arg(250);

/// DSatur cost against clause count at the SATLIB clause/variable ratio.
/// The O(N^2) reference would grow 64x from 250 to 2000 clauses; the
/// bucketed implementation's fitted exponent stays well below 2.
void BM_DSaturColoring(benchmark::State &State) {
  size_t Clauses = static_cast<size_t>(State.range(0));
  int Vars = static_cast<int>(Clauses / sat::SatlibClauseRatio);
  sat::CnfFormula F = sat::RandomSatGenerator(7).generate(Vars, Clauses);
  for (auto _ : State) {
    auto C = core::colorClausesDSatur(F);
    benchmark::DoNotOptimize(C);
  }
  State.SetComplexityN(State.range(0));
}
BENCHMARK(BM_DSaturColoring)
    ->Arg(250)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2000)
    ->Complexity();

} // namespace

int main(int argc, char **argv) {
  if (weaver::bench::tablesEnabled())
    printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
