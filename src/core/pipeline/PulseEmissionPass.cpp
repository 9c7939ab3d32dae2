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

void PulseEmissionPass::saveSections(const CompilationContext &Ctx,
                                     PassCacheEntryBuilder &Builder) const {
  Builder.Back.Stats = Ctx.Stats;
  Builder.SavedStats = true;
}

bool PulseEmissionPass::restoreSections(const PassCacheEntry &Entry,
                                        CompilationContext &Ctx) const {
  if (!Entry.Back)
    return false;
  Ctx.Stats = Entry.Back->Stats;
  Ctx.HasStats = true;
  return true;
}
