//===- core/WeaverCompiler.cpp - End-to-end Weaver pipeline ---------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/WeaverCompiler.h"

#include "core/pipeline/PassManager.h"
#include "qaoa/Builder.h"

using namespace weaver;
using namespace weaver::core;

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

  pipeline::CompilationContext Ctx;
  Ctx.Formula = &Formula;
  Ctx.Hw = Options.Hw;
  Ctx.UseDSatur = Options.UseDSatur;
  Ctx.Cache = Options.Cache;
  Ctx.Cancel = Options.Cancel;
  Ctx.Options.Geometry = Options.Geometry;
  Ctx.Options.Qaoa = Options.Qaoa;
  Ctx.Options.UseCompression = Result.CompressionUsed;
  Ctx.Options.ReuseAodAtoms = Options.ReuseAodAtoms;
  Ctx.Options.Measure = Options.Measure;

  // Fig. 3 pipeline: colouring -> zone planning -> colour shuttling ->
  // gate lowering -> pulse emission (the replayed metrics of §8).
  if (Status S = pipeline::PassManager::standardFpqaPipeline().run(Ctx))
    return Expected<WeaverResult>(S);

  Result.Coloring = std::move(Ctx.Coloring);
  Result.Program = std::move(Ctx.Program);
  Result.Stats = Ctx.Stats;
  // Gate lowering's device walk, which also derives the metrics, counts
  // as compile time; the pulse-emission pass that publishes them does not.
  Result.CompileSeconds = Ctx.elapsedSeconds("pulse-emission");
  Result.PassTimings = std::move(Ctx.Timings);
  Result.FrontHalfFromCache = Ctx.FrontHalfFromCache;
  Result.ProgramFromCache = Ctx.ProgramFromCache;

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
