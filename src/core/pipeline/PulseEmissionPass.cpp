//===- core/pipeline/PulseEmissionPass.cpp - Pulse statistics -------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/pipeline/PulseEmissionPass.h"

using namespace weaver;
using namespace weaver::core;
using namespace weaver::core::pipeline;

Status PulseEmissionPass::run(CompilationContext &Ctx) {
  if (!Ctx.HasStats)
    return Status::error("no pulse statistics; run GateLoweringPass first");
  return Status::success();
}
