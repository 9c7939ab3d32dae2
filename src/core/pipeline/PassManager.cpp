//===- core/pipeline/PassManager.cpp - Pass sequencing --------------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/pipeline/PassManager.h"

#include "core/pipeline/ClauseColoringPass.h"
#include "core/pipeline/GateLoweringPass.h"
#include "core/pipeline/PulseEmissionPass.h"
#include "core/pipeline/ShuttleSchedulingPass.h"
#include "core/pipeline/ZonePlanningPass.h"

#include "support/FaultInjection.h"

#include <chrono>

using namespace weaver;
using namespace weaver::core;
using namespace weaver::core::pipeline;

PassManager &PassManager::addPass(std::unique_ptr<Pass> P) {
  Passes.push_back(std::move(P));
  return *this;
}

Status PassManager::run(CompilationContext &Ctx) const {
  // Memoisation applies only when the pipeline owns the colouring: a
  // driver-supplied colouring is not part of the cache key.
  PassCache *Cache = Ctx.Cache;
  const bool UseCache = Cache && !Ctx.HasColoring && Ctx.Formula;

  PassCacheKey FrontKey, ProgramKey;
  PassCacheEntry Hit;
  bool BuildEntry = false;
  if (UseCache) {
    FrontKey = PassCacheKey::frontHalf(Ctx);
    ProgramKey = PassCacheKey::program(FrontKey, Ctx);
    Hit = Cache->lookupProgram(ProgramKey);
    if (!Hit.Back) {
      Hit.Front = Cache->lookupFront(FrontKey);
      BuildEntry = true;
      // The passes that run will record where gamma/beta live in the
      // program so the entry can serve other parameter points.
      Ctx.CollectAngleSlots = true;
    }
    Ctx.FrontHalfFromCache = Hit.Front != nullptr;
    Ctx.ProgramFromCache = Hit.Back != nullptr;
  }

  PassCacheEntryBuilder Builder;
  for (const std::unique_ptr<Pass> &P : Passes) {
    // Cooperative cancellation: the window between two passes is the only
    // point where aborting cannot leave a half-built section behind. A
    // cancelled run returns before the cache insertions below, so it can
    // never publish partial entries.
    // Injected hang: park between passes (delay_ms caps the stall) until
    // the watchdog or a caller cancels the token. The checkpoint below
    // then converts the wake-up into a normal cooperative abort.
    if (fault::enabled()) {
      fault::Decision D = fault::decide("pipeline.hang");
      if (D.Fire)
        fault::hangUntilCancelled(D.DelayMs, Ctx.Cancel);
    }
    if (Ctx.Cancel && Ctx.Cancel->checkpoint())
      return Status::error(std::string(CancelledDiagnostic) + " before " +
                           P->name());
    auto Start = std::chrono::steady_clock::now();
    bool Restored =
        (Hit.Front || Hit.Back) && P->restoreSections(Hit, Ctx);
    Status S = Restored ? Status::success() : P->run(Ctx);
    double Seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - Start)
                         .count();
    Ctx.Timings.push_back({P->name(), Seconds});
    if (S)
      return Status::error(std::string(P->name()) + ": " + S.message());
    // Sections are captured immediately after the producing pass so later
    // passes cannot have mutated them (gate lowering edits the plans).
    if (BuildEntry && !Restored)
      P->saveSections(Ctx, Builder);
  }

  if (BuildEntry) {
    std::shared_ptr<const FrontHalfSections> Front = Hit.Front;
    if (!Front && Builder.SavedColoring && Builder.SavedPlan)
      Front = Cache->insertFront(FrontKey, std::move(Builder.Front));
    if (Front && Builder.SavedProgram && Builder.SavedStats)
      Cache->insertProgram(ProgramKey, FrontKey, std::move(Front),
                           std::move(Builder.Back));
  }
  return Status::success();
}

PassManager PassManager::standardFpqaPipeline() {
  PassManager PM;
  PM.add<ClauseColoringPass>()
      .add<ZonePlanningPass>()
      .add<ShuttleSchedulingPass>()
      .add<GateLoweringPass>()
      .add<PulseEmissionPass>();
  return PM;
}
