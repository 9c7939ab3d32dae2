//===- core/pipeline/ClauseColoringPass.h - Colouring pass -----*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pipeline stage 1 (paper §5.2, Algorithm 1): partitions the formula's
/// clause conflict graph into variable-disjoint colour groups with DSatur
/// (or the first-fit ablation). When the driver supplied a colouring
/// (Ctx.HasColoring) the pass validates it instead of recolouring.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_CORE_PIPELINE_CLAUSECOLORINGPASS_H
#define WEAVER_CORE_PIPELINE_CLAUSECOLORINGPASS_H

#include "core/pipeline/Pass.h"

namespace weaver {
namespace core {
namespace pipeline {

class ClauseColoringPass : public Pass {
public:
  const char *name() const override { return "clause-coloring"; }
  Status run(CompilationContext &Ctx) override;
};

} // namespace pipeline
} // namespace core
} // namespace weaver

#endif // WEAVER_CORE_PIPELINE_CLAUSECOLORINGPASS_H
