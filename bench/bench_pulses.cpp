//===- bench/bench_pulses.cpp - Fig. 10b: number of pulses ----------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// Regenerates Figure 10b: mean number of laser pulses in each FPQA
/// compiler's output against the number of variables. Expected shape:
/// DPQA emits the fewest pulses (heavy movement), Weaver sits well below
/// Atomique and Geyser thanks to clause compression and global pulses;
/// Geyser/DPQA show "X" above 20 variables.
///
//===----------------------------------------------------------------------===//

#include "BenchCommon.h"

#include "qasm/Printer.h"

#include <benchmark/benchmark.h>

using namespace weaver;
using namespace weaver::bench;

namespace {

void printTable() {
  SuiteConfig Config;
  Config.RunSuperconducting = false; // Fig. 10b compares FPQA compilers
  Table T({"variables", "atomique", "weaver", "dpqa", "geyser"});
  for (int N : sat::SatlibSizes) {
    std::vector<std::vector<double>> Vals(NumCompilers);
    bool Timeout[NumCompilers] = {};
    for (int I = 1; I <= 5; ++I) {
      InstanceResults R = runSuite(sat::satlibInstance(N, I), Config);
      for (int C = 1; C < NumCompilers; ++C) {
        Timeout[C] |= R.get(C).TimedOut;
        if (R.get(C).usable())
          Vals[C].push_back(static_cast<double>(R.get(C).Pulses));
      }
    }
    T.addRow({std::to_string(N),
              Timeout[1] ? "X" : formatf("%.0f", geoMean(Vals[1])),
              Timeout[2] ? "X" : formatf("%.0f", geoMean(Vals[2])),
              Timeout[3] ? "X" : formatf("%.0f", geoMean(Vals[3])),
              Timeout[4] ? "X" : formatf("%.0f", geoMean(Vals[4]))});
  }
  std::printf("== Fig. 10b: number of pulses vs. number of variables "
              "(mean of 5 instances) ==\n%s\n",
              T.render().c_str());
}

/// Replays the emitted program's annotation array in place.
void BM_WeaverPulseAnalysis(benchmark::State &State) {
  sat::CnfFormula F =
      sat::satlibInstance(static_cast<int>(State.range(0)), 1);
  core::WeaverOptions Opt;
  auto W = core::compileWeaver(F, Opt);
  for (auto _ : State) {
    auto Stats = fpqa::analyzePulseProgram(W->Program, Opt.Hw);
    benchmark::DoNotOptimize(Stats);
  }
  State.SetComplexityN(
      static_cast<int64_t>(W->Program.numAnnotations()));
}
BENCHMARK(BM_WeaverPulseAnalysis)->Arg(20)->Arg(100)->Arg(250)
    ->Complexity(benchmark::oN);

/// Fits the emitted @shuttle annotation stream per colour boundary against
/// the AOD column count. The batched Algorithm-2 emitter moves each
/// boundary's columns in whole parallel sets, so the per-boundary
/// annotation count is O(columns); the pre-batching cascade emitter was
/// O(columns^2). The "time" under the fit is the per-boundary annotation
/// count itself (manual time), so the reported BigO is the emission
/// complexity in columns, not a wall-clock figure; the counters feed
/// tools/bench_regress.py's pulse-count regression check.
void BM_WeaverShuttleEmission(benchmark::State &State) {
  sat::CnfFormula F =
      sat::satlibInstance(static_cast<int>(State.range(0)), 1);
  int64_t Columns = 0;
  double PerBoundary = 0;
  size_t Annotations = 0, Pulses = 0, Bytes = 0;
  for (auto _ : State) {
    auto R = core::compileWeaver(F, core::WeaverOptions());
    if (R) {
      for (const qasm::Annotation &A : R->Program.annotationsOf(0))
        if (A.Kind == qasm::AnnotationKind::Aod)
          Columns = static_cast<int64_t>(A.aodXs().size());
      Annotations = R->Stats.ShuttleAnnotations;
      Pulses = R->Stats.totalPulses();
      PerBoundary =
          static_cast<double>(Annotations) / R->Coloring.numColors();
      Bytes = qasm::printWqasm(R->Program).size();
    }
    State.SetIterationTime(PerBoundary);
    benchmark::DoNotOptimize(R);
  }
  State.counters["aod_columns"] = static_cast<double>(Columns);
  State.counters["shuttle_annotations"] = static_cast<double>(Annotations);
  State.counters["shuttles_per_boundary"] = PerBoundary;
  State.counters["total_pulses"] = static_cast<double>(Pulses);
  State.counters["wqasm_bytes"] = static_cast<double>(Bytes);
  State.SetComplexityN(Columns);
}
BENCHMARK(BM_WeaverShuttleEmission)
    ->Arg(20)
    ->Arg(50)
    ->Arg(100)
    ->Arg(250)
    ->UseManualTime()
    ->Complexity(benchmark::oN);

} // namespace

int main(int argc, char **argv) {
  if (weaver::bench::tablesEnabled())
    printTable();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
