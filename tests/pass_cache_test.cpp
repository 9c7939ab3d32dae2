//===- tests/pass_cache_test.cpp - Pass-result memoisation tests ----------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The PassCache contract: compilations through a cache are byte-identical
/// to uncached compilations for every parameter point, hits and misses are
/// accounted per tier, any input change invalidates the affected tiers,
/// and one cache may be shared by every worker of a BatchCompiler batch
/// without changing any result.
///
//===----------------------------------------------------------------------===//

#include "core/BatchCompiler.h"
#include "core/WeaverCompiler.h"
#include "core/pipeline/PassCache.h"
#include "qasm/Printer.h"
#include "sat/Generator.h"

#include <gtest/gtest.h>

#include <thread>

using namespace weaver;
using namespace weaver::core;
using namespace weaver::core::pipeline;
using sat::Clause;
using sat::CnfFormula;

namespace {

CnfFormula testFormula(uint64_t Seed = 1, int Vars = 14, size_t Clauses = 50) {
  return sat::RandomSatGenerator(Seed).generate(Vars, Clauses);
}

WeaverOptions sweepPoint(double Gamma, double Beta, int Layers = 1,
                         PassCache *Cache = nullptr) {
  WeaverOptions Opt;
  Opt.Qaoa.Gamma = Gamma;
  Opt.Qaoa.Beta = Beta;
  Opt.Qaoa.Layers = Layers;
  Opt.Cache = Cache;
  return Opt;
}

/// Compiles and returns the printed program, asserting success.
std::string compileToText(const CnfFormula &F, const WeaverOptions &Opt,
                          WeaverResult *Out = nullptr) {
  auto R = compileWeaver(F, Opt);
  EXPECT_TRUE(R.ok()) << R.message();
  if (Out)
    *Out = *R;
  return qasm::printWqasm(R->Program);
}

} // namespace

// --- Hit/miss accounting -------------------------------------------------

TEST(PassCache, CountsMissThenProgramHits) {
  CnfFormula F = testFormula();
  PassCache Cache;
  WeaverResult First, Second;
  compileToText(F, sweepPoint(0.7, 0.3, 1, &Cache), &First);
  EXPECT_FALSE(First.FrontHalfFromCache);
  EXPECT_FALSE(First.ProgramFromCache);
  compileToText(F, sweepPoint(0.5, 0.2, 1, &Cache), &Second);
  EXPECT_TRUE(Second.FrontHalfFromCache);
  EXPECT_TRUE(Second.ProgramFromCache);

  PassCache::CacheStats S = Cache.stats();
  EXPECT_EQ(S.ProgramMisses, 1u);
  EXPECT_EQ(S.ProgramHits, 1u);
  EXPECT_EQ(S.FrontMisses, 1u); // consulted only on the program miss
  EXPECT_EQ(S.FrontHits, 0u);
  EXPECT_EQ(Cache.size(), 2u); // one front entry + one template
}

TEST(PassCache, LayersChangeReusesFrontHalfOnly) {
  CnfFormula F = testFormula();
  PassCache Cache;
  compileToText(F, sweepPoint(0.7, 0.3, 1, &Cache));
  WeaverResult TwoLayers;
  compileToText(F, sweepPoint(0.7, 0.3, 2, &Cache), &TwoLayers);
  EXPECT_TRUE(TwoLayers.FrontHalfFromCache);
  EXPECT_FALSE(TwoLayers.ProgramFromCache);
  // The restored colouring and zone plan are not timed: only the three
  // back-half passes run.
  std::vector<std::string> Names;
  for (const PassTiming &T : TwoLayers.PassTimings)
    Names.push_back(T.PassName);
  EXPECT_EQ(Names, (std::vector<std::string>{
                       "shuttle-scheduling", "gate-lowering",
                       "pulse-emission"}));

  PassCache::CacheStats S = Cache.stats();
  EXPECT_EQ(S.ProgramMisses, 2u);
  EXPECT_EQ(S.FrontHits, 1u);
  EXPECT_EQ(S.FrontMisses, 1u);
}

TEST(PassCache, TemplateHitRunsNoPass) {
  CnfFormula F = testFormula();
  PassCache Cache;
  compileToText(F, sweepPoint(0.7, 0.3, 1, &Cache));
  WeaverResult Hit;
  std::string HitText = compileToText(F, sweepPoint(0.6, 0.25, 1, &Cache),
                                      &Hit);
  ASSERT_TRUE(Hit.ProgramFromCache);
  ASSERT_EQ(Hit.PassTimings.size(), 1u);
  EXPECT_EQ(Hit.PassTimings[0].PassName, "program-template");
  EXPECT_EQ(Hit.CompileSeconds, Hit.PassTimings[0].Seconds);
  EXPECT_EQ(HitText, compileToText(F, sweepPoint(0.6, 0.25)));
}

// --- Byte identity across a sweep ---------------------------------------

TEST(PassCache, SweepProgramsAreByteIdenticalWithCacheOnOrOff) {
  CnfFormula F = testFormula(3, 12, 45);
  PassCache Cache;
  for (int Layers = 1; Layers <= 2; ++Layers)
    for (int I = 0; I < 5; ++I) {
      double Gamma = 0.3 + 0.11 * I, Beta = 0.15 + 0.07 * I;
      WeaverResult Plain, Cached;
      std::string Off =
          compileToText(F, sweepPoint(Gamma, Beta, Layers), &Plain);
      std::string On =
          compileToText(F, sweepPoint(Gamma, Beta, Layers, &Cache), &Cached);
      ASSERT_EQ(Off, On) << "layers " << Layers << " point " << I;
      // Metrics come out of the cache bit-identically too.
      EXPECT_EQ(Plain.Stats.totalPulses(), Cached.Stats.totalPulses());
      EXPECT_EQ(Plain.Stats.CzGates, Cached.Stats.CzGates);
      EXPECT_EQ(Plain.Stats.CczGates, Cached.Stats.CczGates);
      EXPECT_EQ(Plain.Stats.Duration, Cached.Stats.Duration);
      EXPECT_EQ(Plain.Stats.Eps, Cached.Stats.Eps);
      EXPECT_EQ(Plain.Coloring.ColorOf, Cached.Coloring.ColorOf);
    }
  // 10 points over 2 layer counts: every non-first point per layer count
  // is a template hit.
  EXPECT_EQ(Cache.stats().ProgramHits, 8u);
  EXPECT_EQ(Cache.stats().ProgramMisses, 2u);
}

TEST(PassCache, MeasuredAndLadderVariantsStayByteIdentical) {
  CnfFormula Mixed(5, {Clause{1}, Clause{-2, 3}, Clause{-3, -4, -5},
                       Clause{2, 4}, Clause{-1, 4, 5}});
  PassCache Cache;
  for (bool Measure : {false, true})
    for (auto Mode : {WeaverOptions::CompressionMode::On,
                      WeaverOptions::CompressionMode::Off})
      for (double Gamma : {0.7, 0.41}) {
        WeaverOptions Off = sweepPoint(Gamma, 0.3, 2);
        Off.Measure = Measure;
        Off.Compression = Mode;
        WeaverOptions On = Off;
        On.Cache = &Cache;
        ASSERT_EQ(compileToText(Mixed, Off), compileToText(Mixed, On));
      }
}

// --- Invalidation --------------------------------------------------------

TEST(PassCache, FormulaGeometryAndOptionChangesMiss) {
  PassCache Cache;
  CnfFormula A = testFormula(1), B = testFormula(2);
  compileToText(A, sweepPoint(0.7, 0.3, 1, &Cache));

  // Different formula: both tiers miss.
  compileToText(B, sweepPoint(0.7, 0.3, 1, &Cache));
  EXPECT_EQ(Cache.stats().ProgramHits, 0u);
  EXPECT_EQ(Cache.stats().FrontHits, 0u);

  // Different geometry: both tiers miss (zone plan depends on it).
  WeaverOptions Wide = sweepPoint(0.7, 0.3, 1, &Cache);
  Wide.Geometry.SiteSpacingNm = 25000;
  auto R = compileWeaver(A, Wide);
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_FALSE(R->FrontHalfFromCache);

  // Different colouring heuristic: both tiers miss.
  WeaverOptions FirstFit = sweepPoint(0.7, 0.3, 1, &Cache);
  FirstFit.UseDSatur = false;
  R = compileWeaver(A, FirstFit);
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_FALSE(R->FrontHalfFromCache);

  // Different hardware: the front half (no hardware inputs) is reused,
  // the program/stats tier is not (EPS depends on fidelities).
  WeaverOptions Noisy = sweepPoint(0.7, 0.3, 1, &Cache);
  Noisy.Hw.CzFidelity = 0.9;
  R = compileWeaver(A, Noisy);
  ASSERT_TRUE(R.ok()) << R.message();
  EXPECT_TRUE(R->FrontHalfFromCache);
  EXPECT_FALSE(R->ProgramFromCache);
}

TEST(PassCache, CapFlushesInsteadOfGrowingUnbounded) {
  PassCache Cache(/*MaxEntries=*/2);
  compileToText(testFormula(1), sweepPoint(0.7, 0.3, 1, &Cache));
  EXPECT_EQ(Cache.size(), 2u); // front + template for formula 1
  compileToText(testFormula(2), sweepPoint(0.7, 0.3, 1, &Cache));
  EXPECT_LE(Cache.size(), 2u);
  Cache.clear();
  EXPECT_EQ(Cache.size(), 0u);
}

// --- Sharing across BatchCompiler workers --------------------------------

TEST(PassCache, BatchCompilerWorkersShareOneCache) {
  // A sweep-style batch: few distinct formulas, each repeated.
  std::vector<CnfFormula> Batch;
  for (int Rep = 0; Rep < 4; ++Rep)
    for (uint64_t Seed : {11u, 12u, 13u})
      Batch.push_back(testFormula(Seed));

  BatchOptions BOpt;
  BOpt.NumThreads = 4;
  baselines::WeaverBackend Plain;
  std::vector<baselines::BaselineResult> Reference =
      BatchCompiler(Plain, BOpt).compileAll(Batch);

  PassCache Cache;
  WeaverOptions WOpt;
  WOpt.Cache = &Cache;
  baselines::WeaverBackend CachedBackend(WOpt);
  std::vector<baselines::BaselineResult> Cached =
      BatchCompiler(CachedBackend, BOpt).compileAll(Batch);

  ASSERT_EQ(Reference.size(), Cached.size());
  for (size_t I = 0; I < Reference.size(); ++I) {
    EXPECT_EQ(Reference[I].Pulses, Cached[I].Pulses) << I;
    EXPECT_EQ(Reference[I].TwoQubitGates, Cached[I].TwoQubitGates) << I;
    EXPECT_EQ(Reference[I].ThreeQubitGates, Cached[I].ThreeQubitGates) << I;
    EXPECT_EQ(Reference[I].ExecutionSeconds, Cached[I].ExecutionSeconds)
        << I;
    EXPECT_EQ(Reference[I].Eps, Cached[I].Eps) << I;
    EXPECT_EQ(Reference[I].Colors, Cached[I].Colors) << I;
  }
  // Whatever the interleaving, a (formula, params) pair is built at most
  // once per worker (concurrent first touches may race before the first
  // insert lands, so the exact hit count is scheduler-dependent)...
  PassCache::CacheStats S = Cache.stats();
  EXPECT_EQ(S.ProgramHits + S.ProgramMisses, Batch.size());
  EXPECT_LE(S.ProgramMisses, static_cast<uint64_t>(3 * BOpt.NumThreads));
  // ...and once the entries exist, a second pass is deterministically
  // pure hits.
  std::vector<baselines::BaselineResult> Second =
      BatchCompiler(CachedBackend, BOpt).compileAll(Batch);
  ASSERT_EQ(Second.size(), Cached.size());
  PassCache::CacheStats S2 = Cache.stats();
  EXPECT_EQ(S2.ProgramMisses, S.ProgramMisses);
  EXPECT_EQ(S2.ProgramHits, S.ProgramHits + Batch.size());
}

TEST(PassCache, ConcurrentCompilesStayByteIdentical) {
  CnfFormula F = testFormula(21, 12, 40);
  const double Gammas[4] = {0.3, 0.45, 0.6, 0.75};

  // Uncached reference per gamma.
  std::string Reference[4];
  for (int I = 0; I < 4; ++I)
    Reference[I] = compileToText(F, sweepPoint(Gammas[I], 0.3));

  // Four threads race the same cache over the same sweep points.
  PassCache Cache;
  std::string Got[4][4];
  std::vector<std::thread> Threads;
  for (int T = 0; T < 4; ++T)
    Threads.emplace_back([&, T]() {
      for (int I = 0; I < 4; ++I) {
        auto R = compileWeaver(F, sweepPoint(Gammas[I], 0.3, 1, &Cache));
        if (R.ok())
          Got[T][I] = qasm::printWqasm(R->Program);
      }
    });
  for (std::thread &T : Threads)
    T.join();
  for (int T = 0; T < 4; ++T)
    for (int I = 0; I < 4; ++I)
      EXPECT_EQ(Got[T][I], Reference[I]) << "thread " << T << " point " << I;
}
