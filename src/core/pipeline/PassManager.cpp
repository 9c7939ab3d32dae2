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

Status PassManager::run(CompilationContext &Ctx) const {
  for (const std::unique_ptr<Pass> &P : Passes) {
    // Cooperative cancellation: the window between two passes is the only
    // point where aborting cannot leave a half-built section behind.
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
    Status S = P->run(Ctx);
    double Seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - Start)
                         .count();
    Ctx.Timings.push_back({P->name(), Seconds});
    if (S)
      return Status::error(std::string(P->name()) + ": " + S.message());
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
