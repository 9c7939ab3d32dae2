//===- core/WeaverCompiler.cpp - End-to-end Weaver pipeline ---------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/WeaverCompiler.h"

#include "core/pipeline/PassCache.h"
#include "core/pipeline/PassManager.h"
#include "qaoa/Builder.h"

#include <chrono>

using namespace weaver;
using namespace weaver::core;
using namespace weaver::core::pipeline;

namespace {

/// Runs the Fig. 3 pipeline over \p Ctx through \p Cache (may be null)
/// and records in \p Result whether a template served it. A template hit
/// runs no pass; a miss runs all five and inserts the template only once
/// the last pass has succeeded, so a failed or cancelled compile publishes
/// nothing.
Status runPipeline(CompilationContext &Ctx, PassCache *Cache,
                   WeaverResult &Result) {
  PassCacheKey Key;
  if (Cache) {
    Key = PassCacheKey::of(Ctx);
    if (std::shared_ptr<const ProgramSections> Hit = Cache->lookup(Key)) {
      Result.ProgramFromCache = true;
      // One checkpoint before the copy; it crosses no pass boundary, so it
      // does not consult the pipeline.hang fault site.
      if (Ctx.Cancel && Ctx.Cancel->checkpoint())
        return Status::error(std::string(CancelledDiagnostic) +
                             " before program-template");
      auto Start = std::chrono::steady_clock::now();
      Hit->restore(Ctx);
      std::chrono::duration<double> Took =
          std::chrono::steady_clock::now() - Start;
      Ctx.Timings.push_back({"program-template", Took.count()});
      return Status::success();
    }
  }

  // Gate lowering records where gamma/beta live in the program, so the
  // template can serve other parameter points.
  Ctx.CollectAngleSlots = Cache != nullptr;
  if (Status S = PassManager::standardFpqaPipeline().run(Ctx))
    return S;
  if (Cache)
    Cache->insert(std::move(Key), ProgramSections::capture(Ctx));
  return Status::success();
}

} // namespace

Expected<WeaverResult> core::compileWeaver(const sat::CnfFormula &Formula,
                                           const WeaverOptions &Options) {
  WeaverResult Result;

  // Gate-compression decision (§5.4): is CCZ compression profitable on
  // this hardware?
  switch (Options.Compression) {
  case WeaverOptions::CompressionMode::Auto:
    Result.CompressionUsed = Options.Hw.cczCompressionProfitable();
    break;
  case WeaverOptions::CompressionMode::On:
    Result.CompressionUsed = true;
    break;
  case WeaverOptions::CompressionMode::Off:
    Result.CompressionUsed = false;
    break;
  }

  CompilationContext Ctx;
  Ctx.Formula = &Formula;
  Ctx.Hw = Options.Hw;
  Ctx.UseDSatur = Options.UseDSatur;
  Ctx.Cancel = Options.Cancel;
  Ctx.Options.Geometry = Options.Geometry;
  Ctx.Options.Qaoa = Options.Qaoa;
  Ctx.Options.UseCompression = Result.CompressionUsed;
  Ctx.Options.ReuseAodAtoms = Options.ReuseAodAtoms;
  Ctx.Options.Measure = Options.Measure;

  if (Status S = runPipeline(Ctx, Options.Cache, Result))
    return Expected<WeaverResult>(S);

  Result.Coloring = std::move(Ctx.Coloring);
  Result.Program = std::move(Ctx.Program);
  Result.Stats = Ctx.Stats;
  // Gate lowering's device walk, which also derives the metrics, counts
  // as compile time; the pulse-emission pass that publishes them does not.
  Result.CompileSeconds = Ctx.elapsedSeconds("pulse-emission");
  Result.PassTimings = std::move(Ctx.Timings);

  if (Options.RunChecker) {
    // Reference: the hardware-agnostic (uncompressed ladder) circuit.
    qaoa::QaoaParams RefParams = Options.Qaoa;
    RefParams.Measure = false;
    RefParams.UseCompressedClauses = false;
    circuit::Circuit Reference = qaoa::buildQaoaCircuit(Formula, RefParams);
    Result.Check =
        checkWqasm(Result.Program, Options.Hw, &Reference, Options.Checker);
  }
  return Result;
}
