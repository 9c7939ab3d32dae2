//===- core/pipeline/PulseEmissionPass.h - Pulse statistics ----*- C++ -*-===//
//
// Part of the weaver-cpp reproduction of "Weaver" (CGO 2025). MIT License.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Pipeline stage 5: publishes the paper's evaluation metrics (pulse
/// counts, execution time, EPS — §8) for the emitted program. Gate
/// lowering already replayed every annotation on a fresh device model
/// through fpqa::PulseReplayer while it emitted them, validating every
/// Table 1 pre-condition end to end, so this pass does not walk the pulse
/// stream again: it requires the lowering's statistics.
///
//===----------------------------------------------------------------------===//

#ifndef WEAVER_CORE_PIPELINE_PULSEEMISSIONPASS_H
#define WEAVER_CORE_PIPELINE_PULSEEMISSIONPASS_H

#include "core/pipeline/Pass.h"

namespace weaver {
namespace core {
namespace pipeline {

class PulseEmissionPass : public Pass {
public:
  const char *name() const override { return "pulse-emission"; }
  Status run(CompilationContext &Ctx) override;
};

} // namespace pipeline
} // namespace core
} // namespace weaver

#endif // WEAVER_CORE_PIPELINE_PULSEEMISSIONPASS_H
