//===- core/pipeline/ClauseColoringPass.cpp - Colouring pass --------------===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//

#include "core/pipeline/ClauseColoringPass.h"

using namespace weaver;
using namespace weaver::core;
using namespace weaver::core::pipeline;

Status ClauseColoringPass::run(CompilationContext &Ctx) {
  if (!Ctx.Formula)
    return Status::error("compilation context has no formula");
  if (Ctx.HasColoring) {
    if (!Ctx.Coloring.isValid(*Ctx.Formula))
      return Status::error("supplied clause colouring is invalid: two "
                           "same-coloured clauses share a variable");
    return Status::success();
  }
  Ctx.Coloring = Ctx.UseDSatur ? colorClausesDSatur(*Ctx.Formula)
                               : colorClausesFirstFit(*Ctx.Formula);
  Ctx.HasColoring = true;
  return Status::success();
}
