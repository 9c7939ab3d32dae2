//===- tests/pass_cache_test.cpp - Pass-result memoisation tests ----------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// The PassCache contract: compilations through a cache are byte-identical
/// to uncached compilations for every parameter point, hits and misses are
/// counted, any input other than gamma/beta invalidates the template,
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
  EXPECT_FALSE(First.ProgramFromCache);
  compileToText(F, sweepPoint(0.5, 0.2, 1, &Cache), &Second);
  EXPECT_TRUE(Second.ProgramFromCache);

  PassCache::CacheStats S = Cache.stats();
  EXPECT_EQ(S.ProgramMisses, 1u);
  EXPECT_EQ(S.ProgramHits, 1u);
  EXPECT_EQ(Cache.size(), 1u); // one template
}

TEST(PassCache, LayersChangeMissesAndMatchesCacheOff) {
  CnfFormula F = testFormula();
  PassCache Cache;
  compileToText(F, sweepPoint(0.7, 0.3, 1, &Cache));
  WeaverResult TwoLayers;
  std::string Text =
      compileToText(F, sweepPoint(0.7, 0.3, 2, &Cache), &TwoLayers);
  EXPECT_FALSE(TwoLayers.ProgramFromCache);
  EXPECT_EQ(Text, compileToText(F, sweepPoint(0.7, 0.3, 2)));
  // A miss runs the whole pipeline.
  std::vector<std::string> Names;
  for (const PassTiming &T : TwoLayers.PassTimings)
    Names.push_back(T.PassName);
  EXPECT_EQ(Names, (std::vector<std::string>{
                       "clause-coloring", "zone-planning",
                       "shuttle-scheduling", "gate-lowering",
                       "pulse-emission"}));

  PassCache::CacheStats S = Cache.stats();
  EXPECT_EQ(S.ProgramMisses, 2u);
  EXPECT_EQ(S.ProgramHits, 0u);
  EXPECT_EQ(Cache.size(), 2u); // one template per layer count
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

  // Each variant of A's first compile misses, and its bytes equal a
  // cache-off compile of the same variant.
  auto ExpectMiss = [&](const CnfFormula &F, WeaverOptions Opt,
                        const char *What) {
    Opt.Cache = &Cache;
    WeaverResult R;
    std::string On = compileToText(F, Opt, &R);
    EXPECT_FALSE(R.ProgramFromCache) << What;
    Opt.Cache = nullptr;
    EXPECT_EQ(On, compileToText(F, Opt)) << What;
  };
  ExpectMiss(B, sweepPoint(0.7, 0.3), "formula");
  WeaverOptions Wide = sweepPoint(0.7, 0.3);
  Wide.Geometry.SiteSpacingNm = 25000;
  ExpectMiss(A, Wide, "geometry");
  WeaverOptions FirstFit = sweepPoint(0.7, 0.3);
  FirstFit.UseDSatur = false;
  ExpectMiss(A, FirstFit, "colouring heuristic");
  WeaverOptions Noisy = sweepPoint(0.7, 0.3); // EPS depends on fidelities
  Noisy.Hw.CzFidelity = 0.9;
  ExpectMiss(A, Noisy, "hardware");
  EXPECT_EQ(Cache.stats().ProgramHits, 0u);
  EXPECT_EQ(Cache.stats().ProgramMisses, 5u);
}

TEST(PassCache, CapFlushesInsteadOfGrowingUnbounded) {
  PassCache Cache(/*MaxEntries=*/2);
  // One entry per formula, however many angle points it serves.
  compileToText(testFormula(1), sweepPoint(0.7, 0.3, 1, &Cache));
  compileToText(testFormula(1), sweepPoint(0.5, 0.2, 1, &Cache));
  EXPECT_EQ(Cache.size(), 1u);
  compileToText(testFormula(2), sweepPoint(0.7, 0.3, 1, &Cache));
  EXPECT_EQ(Cache.size(), 2u);
  // A third formula would exceed the cap: the cache flushes, then holds
  // the new template only.
  compileToText(testFormula(3), sweepPoint(0.7, 0.3, 1, &Cache));
  EXPECT_EQ(Cache.size(), 1u);
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
